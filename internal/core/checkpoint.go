package core

import (
	"fmt"

	"largewindow/internal/bpred"
	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/mem"
)

// WarmSink adapts a cache hierarchy and branch predictor to the emulator's
// warm-sink interface. All touches go through the stat-free warm APIs, so
// a measured region's counters reflect only its own traffic. A checkpoint
// restore replays its bounded warm log through one; the sampler streams
// the program's whole functional history through one between windows.
type WarmSink struct {
	H  *mem.Hierarchy
	BP *bpred.Predictor
}

func (w WarmSink) WarmFetch(line uint64) { w.H.WarmFetch(line) }
func (w WarmSink) WarmLoad(addr uint64)  { w.H.WarmLoad(addr) }
func (w WarmSink) WarmStore(addr uint64) { w.H.WarmStore(addr) }
func (w WarmSink) WarmBranch(b emu.WarmBranch) {
	w.BP.WarmBranch(b.PC, b.Target, b.Taken, b.Cond, b.BTB)
}

// AdoptWarmState replaces the processor's cold cache hierarchy and branch
// predictor with externally warmed ones. Sampled simulation keeps one
// hierarchy and predictor alive per cell, feeds them the program's full
// functional access stream between measured intervals (emu.Machine.RunSink),
// and hands them to each interval's fresh processor — full-history warming,
// where a checkpoint's bounded warm rings only replay a tail.
//
// The hierarchy and predictor must have been built from the same Config
// the processor was (geometry is the caller's responsibility), and the
// call must precede Run, on a freshly constructed processor. The caller
// must also clear cycle-stamped transients (Hierarchy.ResetTiming) when
// the adopted state last served a processor whose clock ran ahead.
func (p *Processor) AdoptWarmState(h *mem.Hierarchy, bp *bpred.Predictor) error {
	if p.now != 0 || p.stats.Committed != 0 || p.nextSeq != 1 {
		return fmt.Errorf("core: AdoptWarmState on a processor that already ran (cycle %d, %d committed)",
			p.now, p.stats.Committed)
	}
	if h != nil {
		p.hier = h
	}
	if bp != nil {
		p.bp = bp
	}
	return nil
}

// RestoreCheckpoint starts the timing simulation from a functional
// checkpoint: committed memory and the architectural register mappings
// take the checkpointed values, fetch resumes at the checkpointed PC, the
// stream hash continues the emulator's, and the checkpoint's warm log (if
// any) is replayed into the caches, TLB, and branch predictor. All
// statistics then cover the measured region only; Stats.Skipped records
// how many instructions the functional pass executed.
//
// It must be called on a freshly constructed processor, before Run.
func (p *Processor) RestoreCheckpoint(cp *emu.Checkpoint) error {
	if p.now != 0 || p.stats.Committed != 0 || p.nextSeq != 1 {
		return fmt.Errorf("core: RestoreCheckpoint on a processor that already ran (cycle %d, %d committed)",
			p.now, p.stats.Committed)
	}
	if cp.Bench != "" && p.prog.Name != cp.Bench {
		return fmt.Errorf("core: checkpoint for %q restored onto program %q", cp.Bench, p.prog.Name)
	}
	if !cp.Halted && cp.PC >= uint64(len(p.prog.Code)) {
		return fmt.Errorf("core: checkpoint pc %d outside code segment (len %d)", cp.PC, len(p.prog.Code))
	}

	p.memory = cp.Mem.Clone()
	// On a fresh processor architectural register a maps to physical a in
	// both the rename and retirement maps; install the checkpointed values
	// through the map anyway so the invariant lives in one place.
	for a := 0; a < isa.NumRegs; a++ {
		v := cp.IntReg[a]
		if a == int(isa.Zero) {
			v = 0
		}
		p.regs[0].arch(a).value = v
		p.regs[1].arch(a).value = cp.FPReg[a]
	}
	p.fetchPC = cp.PC
	p.stats.StreamHash = cp.StreamHash
	p.stats.Skipped = cp.InstrCount
	if cp.Halted {
		// The program halted during warmup: the measured window is empty
		// and Run returns immediately with zero committed instructions.
		p.halted = true
		p.fetchHalted = true
	}
	if p.oracle != nil {
		m, err := emu.Restore(p.prog, cp)
		if err != nil {
			return fmt.Errorf("core: restoring lockstep oracle: %w", err)
		}
		p.oracle = m
	}
	cp.Warm.Replay(WarmSink{H: p.hier, BP: p.bp})
	return nil
}

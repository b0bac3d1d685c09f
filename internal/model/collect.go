package model

import (
	"errors"
	"fmt"

	"largewindow/internal/bpred"
	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/mem"
)

// CollectOptions parameterizes a profile pass.
type CollectOptions struct {
	// MaxInstr bounds the functional pass (0 = run to halt). To predict a
	// budgeted detailed run, profile the same budget: both cover the same
	// instruction window.
	MaxInstr uint64
	// Windows overrides the ladder (default DefaultWindows).
	Windows []int
	// Mem is the cache family to profile against.
	Mem mem.Config
	// Bpred sizes the profiled branch predictor.
	Bpred bpred.Config
}

// classLat is the dataflow latency each instruction class contributes to
// a dependency chain: the paper's Table 1 FU latencies, with loads at
// the L1 hit latency (long misses are modeled separately by the
// serialized-miss term, not the ILP ladder).
var classLat = [isa.NumClasses]int64{
	isa.ClassIntALU: 1, isa.ClassIntMult: 7,
	isa.ClassFPAdd: 4, isa.ClassFPMult: 4, isa.ClassFPDiv: 12, isa.ClassFPSqrt: 24,
	isa.ClassLoad: 2, isa.ClassStore: 1,
	isa.ClassBranch: 1, isa.ClassJump: 1,
}

// opInfo is the collector's predecoded operand view of one static
// instruction (the emulator's own table is unexported).
type opInfo struct {
	src1, src2, dest isa.RegRef
	lat              int64
}

// missRec records one long load miss: its dynamic position and the
// position of the older long miss its address depends on (-1 if its
// address is miss-independent).
type missRec struct {
	pos, dep int64
}

// ladder accumulates the critical-dependency-chain length of one window
// size. Register depths are stamped with the chunk that wrote them
// instead of being cleared at chunk boundaries, so advancing a chunk is
// O(1) regardless of register-file size.
type ladder struct {
	w          int64
	chunkStart int64
	chunk      int64
	chunkMax   int64
	sumCrit    int64
	depth      [2][isa.NumRegs]int64
	stamp      [2][isa.NumRegs]int64
}

func (l *ladder) depthOf(r isa.RegRef) int64 {
	if !r.Valid {
		return 0
	}
	b := 0
	if r.FP {
		b = 1
	}
	if l.stamp[b][r.N] != l.chunk {
		return 0
	}
	return l.depth[b][r.N]
}

func (l *ladder) setDepth(r isa.RegRef, d int64) {
	if !r.Valid {
		return
	}
	b := 0
	if r.FP {
		b = 1
	}
	l.depth[b][r.N] = d
	l.stamp[b][r.N] = l.chunk
}

// collector implements emu.ProfileSink: it joins the emulator's
// per-instruction stream against its operand table, feeding
// stat-counting warm caches/TLB/predictor and the dependence ladders.
type collector struct {
	ops []opInfo
	h   *mem.Hierarchy
	bp  *bpred.Predictor

	pos           int64 // dynamic position of the current instruction
	lastFetchLine uint64

	// taint[bank][reg] is the position of the most recent long load miss
	// whose data flows into the register's value (through ALU ops and
	// through the address chains of hitting loads); -1 = untainted.
	taint [2][isa.NumRegs]int64

	misses  []missRec
	ladders []ladder

	prof *Profile
}

func (c *collector) taintOf(r isa.RegRef) int64 {
	if !r.Valid {
		return -1
	}
	b := 0
	if r.FP {
		b = 1
	}
	return c.taint[b][r.N]
}

func (c *collector) setTaint(r isa.RegRef, t int64) {
	if !r.Valid {
		return
	}
	b := 0
	if r.FP {
		b = 1
	}
	c.taint[b][r.N] = t
}

// dataflow advances every ladder with one instruction's dependency edge.
func (c *collector) dataflow(op *opInfo, pos int64) {
	for i := range c.ladders {
		l := &c.ladders[i]
		if pos-l.chunkStart >= l.w {
			l.sumCrit += l.chunkMax
			l.chunkMax = 0
			l.chunkStart = pos
			l.chunk++
		}
		d := l.depthOf(op.src1)
		if d2 := l.depthOf(op.src2); d2 > d {
			d = d2
		}
		d += op.lat
		l.setDepth(op.dest, d)
		if d > l.chunkMax {
			l.chunkMax = d
		}
	}
}

// Instr implements emu.ProfileSink.
func (c *collector) Instr(pc uint64, class isa.Class) {
	pos := c.pos
	c.pos++
	if line := (pc * 8) &^ 63; line != c.lastFetchLine {
		c.lastFetchLine = line
		switch c.h.ProfileFetch(line) {
		case mem.WarmHitL2:
			c.prof.L1IMisses++
		case mem.WarmHitMem:
			c.prof.L1IMisses++
			c.prof.L1IMemMisses++
		}
	}
	op := &c.ops[pc]
	switch class {
	case isa.ClassLoad, isa.ClassStore:
		// Mem fires next with the effective address; the dependence work
		// needs the hit level, so it happens there.
	default:
		t := c.taintOf(op.src1)
		if t2 := c.taintOf(op.src2); t2 > t {
			t = t2
		}
		c.setTaint(op.dest, t)
		c.dataflow(op, pos)
	}
}

// Mem implements emu.ProfileSink.
func (c *collector) Mem(pc, addr uint64, store bool) {
	pos := c.pos - 1
	op := &c.ops[pc]
	if store {
		lvl, tlbMiss := c.h.ProfileStore(addr)
		if tlbMiss {
			c.prof.TLBMisses++
		}
		if lvl != mem.WarmHitL1 {
			c.prof.L1DMisses++
			if lvl == mem.WarmHitMem {
				c.prof.DataMemMisses++
			}
		}
		c.dataflow(op, pos)
		return
	}
	lvl, tlbMiss := c.h.ProfileLoad(addr)
	if tlbMiss {
		c.prof.TLBMisses++
	}
	dep := c.taintOf(op.src1)
	if lvl != mem.WarmHitL1 {
		c.prof.L1DMisses++
		if lvl == mem.WarmHitMem {
			c.prof.DataMemMisses++
			c.prof.LongLoadMisses++
			c.misses = append(c.misses, missRec{pos: pos, dep: dep})
			// The loaded value arrives a full memory latency late: chains
			// through it serialize behind THIS miss.
			dep = pos
		}
	}
	// Address dependence propagates through the loaded value even on a
	// hit: a pointer chase A→B→C serializes on A's fill no matter how
	// many intermediate hops hit the L1.
	c.setTaint(op.dest, dep)
	c.dataflow(op, pos)
}

// Branch implements emu.ProfileSink.
func (c *collector) Branch(b emu.WarmBranch) {
	mis, btbMiss := c.bp.ProfileBranch(b.PC, b.Target, b.Taken, b.Cond, b.BTB)
	if b.Cond {
		c.prof.CondBranches++
		if mis {
			c.prof.Mispredicts++
		}
	}
	if btbMiss {
		c.prof.BTBMisses++
	}
	// Instr already ran the dataflow step for this transfer; only the Jal
	// link register needs its taint corrected (a fresh PC constant, not a
	// function of the source operands).
	if op := &c.ops[b.PC]; op.dest.Valid {
		c.setTaint(op.dest, -1)
	}
}

// serializedAt counts the serialized long-miss epochs for window w:
// dependent misses always pay the full latency (their address needs an
// older miss's data); independent misses overlap for free when they fall
// within one window of their epoch's leader.
func serializedAt(misses []missRec, w int64) float64 {
	var m float64
	leader := int64(-1 << 62)
	for _, ms := range misses {
		switch {
		case ms.dep >= 0:
			m++
			leader = ms.pos
		case ms.pos-leader > w:
			m++
			leader = ms.pos
		}
	}
	return m
}

// Collect profiles one workload against one cache family in a single
// functional pass, producing the interval model's inputs. scale labels
// the workload build (it does not affect collection).
func Collect(prog *isa.Program, scale string, opt CollectOptions) (*Profile, error) {
	// The constructors below panic on the geometry Validate refuses.
	if err := opt.Mem.Validate(); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	if err := opt.Bpred.Validate(); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	windows := opt.Windows
	if len(windows) == 0 {
		windows = DefaultWindows
	}
	maxInstr := opt.MaxInstr
	if maxInstr == 0 {
		maxInstr = 1 << 62
	}

	ops := make([]opInfo, len(prog.Code))
	for pc, in := range prog.Code {
		ops[pc] = opInfo{
			src1: in.Src1(), src2: in.Src2(), dest: in.Dest(),
			lat: classLat[in.Op.Class()],
		}
	}
	c := &collector{
		ops:           ops,
		h:             mem.NewHierarchy(opt.Mem),
		bp:            bpred.New(opt.Bpred),
		lastFetchLine: ^uint64(0),
		prof: &Profile{
			Bench:   prog.Name,
			Scale:   scale,
			MemKey:  MemKey(opt.Mem),
			Windows: append([]int(nil), windows...),
		},
	}
	for b := range c.taint {
		for r := range c.taint[b] {
			c.taint[b][r] = -1
		}
	}
	c.ladders = make([]ladder, len(windows))
	for i, w := range windows {
		if w <= 0 {
			return nil, fmt.Errorf("model: non-positive window %d in ladder", w)
		}
		c.ladders[i] = ladder{w: int64(w)}
	}

	m := emu.New(prog)
	n, err := m.RunProfile(maxInstr, c)
	if err != nil && !errors.Is(err, emu.ErrNotHalted) {
		return nil, fmt.Errorf("model: profiling %s: %w", prog.Name, err)
	}
	p := c.prof
	p.N = n
	p.Halted = m.Halted
	p.ClassMix = m.ClassMix

	p.SerialMisses = make([]float64, len(windows))
	p.ILP = make([]float64, len(windows))
	for i := range windows {
		p.SerialMisses[i] = serializedAt(c.misses, int64(windows[i]))
		l := &c.ladders[i]
		crit := l.sumCrit + l.chunkMax // fold the final partial chunk in
		if crit <= 0 {
			crit = 1
		}
		p.ILP[i] = float64(n) / float64(crit)
	}
	// Enforce the monotonicity the model's closed form relies on (the
	// raw series are monotone up to chunk-alignment noise).
	for i := 1; i < len(windows); i++ {
		if p.SerialMisses[i] > p.SerialMisses[i-1] {
			p.SerialMisses[i] = p.SerialMisses[i-1]
		}
		if p.ILP[i] < p.ILP[i-1] {
			p.ILP[i] = p.ILP[i-1]
		}
	}
	return p, nil
}

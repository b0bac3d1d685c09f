package sample

import (
	"context"
	"errors"
	"fmt"

	"largewindow/internal/bpred"
	"largewindow/internal/core"
	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/mem"
	"largewindow/internal/stats"
)

// Progress receives interval-completion updates during Run: done measured
// intervals out of planned. It is called from Run's goroutine; nil means
// no reporting. The campaign progress line renders it as "interval k/N".
type Progress func(done, planned int)

// Outcome is the result of one sampled run: the per-interval IPC series,
// the aggregated measured-window stats, and the CLT estimators over the
// interval CPIs.
type Outcome struct {
	// Plan is the executed plan — auto-period plans appear here resolved
	// against the program's actual length.
	Plan Plan
	// IntervalIPCs holds one measured-window IPC per completed interval
	// (possibly fewer than Plan.Intervals when the program halted).
	IntervalIPCs []float64
	// Stats sums the measured windows: Committed/Cycles cover measured
	// instructions only, Skipped counts everything executed functionally
	// or as detailed warmup, and IPC is the sampled point estimate
	// (MeanIPC).
	Stats core.Stats
	// MeanIPC is the sampled estimate of the program's IPC: the inverse of
	// the mean per-interval CPI. With (near-)equal instruction units
	// placed uniformly in instruction space, mean window CPI is the
	// unbiased estimator of the program's cycles-per-instruction; the
	// arithmetic mean of window IPCs would overestimate (Jensen's
	// inequality — fast windows overweighted). IPCStdDev and IPCCI95
	// qualify it, propagated from the CPI series (delta method).
	MeanIPC   float64
	IPCStdDev float64
	IPCCI95   float64
	// Measured-window memory-system ratios (aggregated across intervals).
	DL1Miss float64
	L2Local float64
	TLBMiss float64
	BrAcc   float64
	// Halted reports that the program ran to completion before the plan
	// was exhausted.
	Halted bool
	// TotalInstr is how far into the program the run reached
	// (functional + detailed instructions).
	TotalInstr uint64
}

// ProgramLength runs a throwaway functional machine to completion and
// returns the program's dynamic instruction count — what auto-period
// plans resolve against. It costs one emulator pass (~200M instrs/s);
// campaign callers memoize it per benchmark.
func ProgramLength(prog *isa.Program) (uint64, error) {
	m := emu.New(prog)
	n, err := m.Run(1 << 62)
	if err != nil {
		return 0, fmt.Errorf("sample: sizing %s: %w", prog.Name, err)
	}
	return n, nil
}

// Run executes one sampling plan: the functional emulator fast-forwards
// between detailed windows while streaming the full access history into
// one persistent cache hierarchy and branch predictor (full-history
// functional warming — no bounded warm rings), and each window runs on a
// fresh detailed core seeded by a copy-on-write checkpoint handoff that
// adopts the warmed state. maxCycles bounds each detailed window
// (0 = unbounded). An auto-period plan (Period == 0) is first resolved
// against the program's measured length.
//
// The emulator, not the core, carries the program: after a window the
// next fast-forward re-executes the window's instructions functionally,
// so successive windows always continue one unbroken functional stream
// and the same plan yields byte-identical outcomes on every run.
func Run(ctx context.Context, cfg core.Config, prog *isa.Program, plan Plan, maxCycles int64, progress Progress) (*Outcome, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil { // before the warm state is built from it
		return nil, err
	}
	if !plan.Resolved() {
		total, err := ProgramLength(prog)
		if err != nil {
			return nil, err
		}
		plan = plan.Resolve(total)
	}
	out := &Outcome{Plan: plan}
	m := emu.New(prog)
	warm := core.WarmSink{H: mem.NewHierarchy(cfg.Mem), BP: bpred.New(cfg.Bpred)}

	// Aggregated measured-window memory-system counters.
	var dl1, l2, tlb mem.CacheStats
	var cpis []float64

	for k := 0; k < plan.Intervals; k++ {
		start := plan.Offset(k)
		if start > m.InstrCount {
			if _, err := m.RunSink(start-m.InstrCount, warm); err != nil && !errors.Is(err, emu.ErrNotHalted) {
				return nil, fmt.Errorf("sample: fast-forward to interval %d of %s: %w", k, prog.Name, err)
			}
		}
		if m.Halted {
			out.Halted = true
			break
		}

		// Hand the persistent warm state to this interval's core through a
		// copy-on-write checkpoint. The in-flight fill table carries cycle
		// stamps from the previous interval's clock; drop it (cache
		// contents stay). The predictor goes over as a CLONE: the shared
		// copy stays architectural-stream-pure, because a core's in-window
		// speculation (and the abandoned in-flight tail when its budget
		// expires) would otherwise contaminate the trained state later
		// intervals inherit — a sliver of extra mispredicts that a deep
		// window amplifies into tens of percent of IPC error.
		warm.H.ResetTiming()
		w, err := core.RunWindow(ctx, cfg, prog, core.Window{
			Start:     m.Checkpoint(),
			Hier:      warm.H,
			Bpred:     warm.BP.Clone(),
			Warmup:    plan.Warmup,
			Measure:   plan.Length,
			MaxCycles: maxCycles,
		})
		if err != nil {
			return nil, fmt.Errorf("sample: interval %d of %s: %w", k, prog.Name, err)
		}
		if !w.Measured {
			// Halted (or cycle-bounded) inside warmup: no measured window
			// exists for this interval.
			out.Halted = w.Halted
			break
		}
		if win := w.Stats; win.Committed > 0 && win.Cycles > 0 {
			out.Stats.Accumulate(win)
			out.IntervalIPCs = append(out.IntervalIPCs, win.IPC)
			cpis = append(cpis, float64(win.Cycles)/float64(win.Committed))
			dl1.Add(w.L1D)
			l2.Add(w.L2)
			tlb.Add(w.TLB)
			if progress != nil {
				progress(len(out.IntervalIPCs), plan.Intervals)
			}
		}
		detailed := w.Warmed + w.Stats.Committed
		if w.Halted {
			// The program halted inside the detailed window: the partial
			// window above (if any) is the final interval.
			out.Halted = true
			m.InstrCount += detailed // advance TotalInstr bookkeeping
			break
		}

		// Re-execute the window's instructions on the emulator with the
		// warm sink: the shared predictor saw none of them (the core
		// trained only its private clone), and the shared hierarchy is
		// refreshed in architectural order, scrubbing the abandoned
		// interval's speculative leftovers. Every instruction of the
		// program thus trains the shared warm state exactly once.
		if _, err := m.RunSink(detailed, warm); err != nil && !errors.Is(err, emu.ErrNotHalted) {
			return nil, fmt.Errorf("sample: advancing past interval %d of %s: %w", k, prog.Name, err)
		}
	}

	// Position bookkeeping: the emulator re-executes every detailed
	// window, so its count is authoritative (the in-window-halt case
	// adjusts it manually above).
	out.TotalInstr = m.InstrCount

	if meanCPI := stats.ArithMean(cpis); meanCPI > 0 {
		out.MeanIPC = 1 / meanCPI
		// Delta method: d(1/x)/dx = -1/x², so spread in CPI space maps to
		// IPC space scaled by MeanIPC².
		out.IPCStdDev = stats.StdDev(cpis) * out.MeanIPC * out.MeanIPC
		out.IPCCI95 = stats.CI95(cpis) * out.MeanIPC * out.MeanIPC
	}
	out.Stats.IPC = out.MeanIPC
	// Skipped = everything the run covered that was not measured.
	if out.TotalInstr > out.Stats.Committed {
		out.Stats.Skipped = out.TotalInstr - out.Stats.Committed
	}
	out.DL1Miss = dl1.MissRatio()
	out.L2Local = l2.MissRatio()
	out.TLBMiss = tlb.MissRatio()
	out.BrAcc = out.Stats.CondAccuracy()
	return out, nil
}

// OneWindow reports a single contiguous detailed window — a plain or
// skip/measure run — in the sampled run's currency, so every surface maps
// one Outcome type onto its own view. Nothing is re-derived: the stats,
// IPC and ratios are the window's own.
func OneWindow(w core.WindowResult) *Outcome {
	return &Outcome{
		Stats:      w.Stats,
		MeanIPC:    w.Stats.IPC,
		DL1Miss:    w.L1D.MissRatio(),
		L2Local:    w.L2.MissRatio(),
		TLBMiss:    w.TLB.MissRatio(),
		BrAcc:      w.Stats.CondAccuracy(),
		Halted:     w.Halted,
		TotalInstr: w.Stats.Skipped + w.Stats.Committed,
	}
}

package sample

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"

	"largewindow/internal/bpred"
	"largewindow/internal/core"
	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/mem"
	"largewindow/internal/stats"
)

// Progress receives interval-completion updates during Run: done measured
// intervals out of planned. It is called from Run's goroutine, with done
// rising by one per call, though windows run on others; nil means no
// reporting. The campaign progress line renders it as "interval k/N".
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

// Run executes one sampling plan. One functional pass streams the program
// into one cache hierarchy and branch predictor (full-history functional
// warming — no bounded warm rings), so every instruction warms that
// shared state exactly once, architecturally. At each window's start the
// pass takes a snapshot — a checkpoint handed over to that window alone
// (emu.Machine.Handover: one copy-on-write clone of the pass's memory,
// which the window's restore takes instead of copying it again) and
// copies of the hierarchy and the predictor, made into a finished
// window's when one is free — and streams on while the window runs a
// detailed core built around the snapshot, on up to
// runtime.GOMAXPROCS(0) windows at once. A core's traffic, wrong path
// included, lands only on its own copies, so windows are independent of
// each other. maxCycles bounds each detailed window (0 = unbounded). An
// auto-period plan (Period == 0) is first resolved against the program's
// measured length.
//
// Window k starts at its plan offset, or where window k-1's core stopped
// if that is later (commit overshoots a budget by less than a commit
// group; only then does the pass wait for window k-1). Windows are folded
// in plan order on Run's goroutine, so the Outcome, the progress calls and
// the error returned are exactly those of one window at a time: the same
// plan yields byte-identical outcomes on every run, at any GOMAXPROCS.
func Run(ctx context.Context, cfg core.Config, prog *isa.Program, plan Plan, maxCycles int64, progress Progress) (*Outcome, error) {
	return run(ctx, cfg, prog, plan, maxCycles, progress, core.RunWindow)
}

// executor runs one detailed window: core.RunWindow, or a test's wrapper
// of it that observes snapshots or reorders completions.
type executor func(context.Context, core.Config, *isa.Program, core.Window) (core.WindowResult, error)

// run is Run with the window executor as a parameter.
func run(ctx context.Context, cfg core.Config, prog *isa.Program, plan Plan, maxCycles int64, progress Progress, exec executor) (*Outcome, error) {
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
	ctx, cancel := context.WithCancel(ctx)
	s := &sampler{
		ctx: ctx, cfg: cfg, prog: prog, plan: plan, maxCycles: maxCycles, exec: exec, progress: progress,
		workers: runtime.GOMAXPROCS(0),
		wins:    make([]*window, 0, min(plan.Intervals, maxPresized)),
		out:     &Outcome{Plan: plan},
	}
	s.done = make(chan *window, s.workers) // at most workers windows run, so a send never blocks
	defer func() {
		// Windows past the one the run stopped at are abandoned: cancel
		// them and wait, so no goroutine outlives Run.
		cancel()
		for ; s.running > 0; s.running-- {
			<-s.done
		}
	}()
	s.stream()
	for !s.stopped && s.folded < len(s.wins) {
		s.await()
	}
	if s.err != nil {
		return nil, s.err
	}
	return s.finish(), nil
}

// maxPresized bounds how many windows Run makes room for up front: a plan
// with an explicit period may ask for more than the program can hold.
const maxPresized = 1 << 12

// window is one interval: where it starts, what it runs on and, once
// finished, what ended it — the detailed window's result, or the
// functional pass halting or faulting before the window could start.
type window struct {
	k       int
	start   uint64
	reached uint64      // the functional pass's count on arriving at start
	gapHalt bool        // the program halted before start: no window runs
	spec    core.Window // its snapshot and handed-over checkpoint, until it finishes
	res     core.WindowResult
	err     error
	done    bool
}

// snapshot is the warm state a window runs on: a copy of the functional
// pass's hierarchy and predictor. A finished window's snapshot is copied
// into again for a later window, so a pass builds at most as many as it
// runs windows at once.
type snapshot struct {
	hier *mem.Hierarchy
	bp   *bpred.Predictor
}

// sampler is one Run in progress. Everything but a running window's own
// fields belongs to Run's goroutine.
type sampler struct {
	ctx       context.Context
	cfg       core.Config
	prog      *isa.Program
	plan      Plan
	maxCycles int64
	exec      executor
	progress  Progress
	workers   int

	wins    []*window    // started so far, in plan order
	done    chan *window // finished windows, in completion order
	free    []snapshot   // the snapshots of finished windows
	running int          // windows whose goroutine has not reported
	folded  int          // wins[:folded] are in the outcome
	stopped bool         // a folded window ended the run
	err     error

	// The Outcome under construction, fed windows in plan order.
	out          *Outcome
	dl1, l2, tlb mem.CacheStats // measured-window memory-system counters
	cpis         []float64
	end          uint64 // where the last folded window's core stopped
}

// stream is the functional pass: it walks the plan, streaming the
// program to each window's start and starting the window on a snapshot,
// until the plan is exhausted or the run stops.
func (s *sampler) stream() {
	m := emu.New(s.prog)
	warm := &core.WarmSink{H: mem.NewHierarchy(s.cfg.Mem), BP: bpred.New(s.cfg.Bpred)} // boxed once, not per RunSink
	// How far past its start a window's core can stop: its budget, plus
	// less than one commit group of overshoot.
	reach := s.plan.Detailed() + uint64(s.cfg.CommitWidth) - 1
	for k := 0; k < s.plan.Intervals; k++ {
		start := s.plan.Offset(k)
		if k > 0 && start < s.wins[k-1].start+reach {
			// Window k-1 may end past this offset: fold it first.
			for !s.stopped && s.folded < k {
				s.await()
			}
			start = max(start, s.end)
		}
		for !s.stopped && s.running >= s.workers {
			s.await()
		}
		if s.stopped {
			return
		}
		w := &window{k: k, start: start}
		s.wins = append(s.wins, w)
		if start > m.InstrCount {
			if _, err := m.RunSink(start-m.InstrCount, warm); err != nil && !errors.Is(err, emu.ErrNotHalted) {
				w.err = fmt.Errorf("sample: fast-forward to interval %d of %s: %w", k, s.prog.Name, err)
			}
		}
		w.reached = m.InstrCount
		if w.err != nil || m.Halted {
			w.gapHalt, w.done = m.Halted, true
			s.foldReady()
			return
		}
		var snap snapshot
		if n := len(s.free); n > 0 {
			snap, s.free = s.free[n-1], s.free[:n-1]
		}
		w.spec = core.Window{
			Start:     m.Handover(),
			Hier:      warm.H.CloneInto(snap.hier),
			Bpred:     warm.BP.CloneInto(snap.bp),
			Warmup:    s.plan.Warmup,
			Measure:   s.plan.Length,
			MaxCycles: s.maxCycles,
		}
		s.running++
		go s.runWindow(w)
	}
}

// runWindow is one window's goroutine. A panic is recovered into the
// window's error, with its stack, so it reaches Run's caller as a failure
// of this interval rather than killing the process.
func (s *sampler) runWindow(w *window) {
	defer func() {
		if r := recover(); r != nil {
			w.err = fmt.Errorf("sample: interval %d of %s: panic: %v\n%s", w.k, s.prog.Name, r, debug.Stack())
		}
		s.done <- w
	}()
	res, err := s.exec(s.ctx, s.cfg, s.prog, w.spec)
	res.Proc = nil // the core is not kept past its window
	w.res = res
	if err != nil {
		w.err = fmt.Errorf("sample: interval %d of %s: %w", w.k, s.prog.Name, err)
	}
}

// await takes one finished window, recycles its snapshot, and folds
// every window now finished in plan order.
func (s *sampler) await() {
	w := <-s.done
	s.running--
	s.free = append(s.free, snapshot{w.spec.Hier, w.spec.Bpred})
	w.spec, w.done = core.Window{}, true
	s.foldReady()
}

// foldReady folds the finished prefix of the started windows.
func (s *sampler) foldReady() {
	for !s.stopped && s.folded < len(s.wins) && s.wins[s.folded].done {
		s.fold(s.wins[s.folded])
		s.folded++
	}
}

// fold adds one window to the outcome, stopping the run when the window
// ends it.
func (s *sampler) fold(w *window) {
	out := s.out
	out.TotalInstr = w.reached
	switch {
	case w.err != nil:
		s.stopped, s.err = true, w.err
		return
	case w.gapHalt:
		s.stopped, out.Halted = true, true
		return
	case !w.res.Measured:
		// Halted (or cycle-bounded) inside warmup: no measured window
		// exists for this interval.
		s.stopped, out.Halted = true, w.res.Halted
		return
	}
	if win := w.res.Stats; win.Committed > 0 && win.Cycles > 0 {
		out.Stats.Accumulate(win)
		out.IntervalIPCs = append(out.IntervalIPCs, win.IPC)
		s.cpis = append(s.cpis, float64(win.Cycles)/float64(win.Committed))
		s.dl1.Add(w.res.L1D)
		s.l2.Add(w.res.L2)
		s.tlb.Add(w.res.TLB)
		if s.progress != nil {
			s.progress(len(out.IntervalIPCs), out.Plan.Intervals)
		}
	}
	s.end = w.start + w.res.Warmed + w.res.Stats.Committed
	out.TotalInstr = s.end
	// The program halted inside the detailed window: the partial window
	// above (if any) is the final interval.
	s.stopped, out.Halted = w.res.Halted, w.res.Halted
}

// finish computes the estimators over the folded windows.
func (s *sampler) finish() *Outcome {
	out := s.out
	if meanCPI := stats.ArithMean(s.cpis); meanCPI > 0 {
		out.MeanIPC = 1 / meanCPI
		// Delta method: d(1/x)/dx = -1/x², so spread in CPI space maps to
		// IPC space scaled by MeanIPC².
		out.IPCStdDev = stats.StdDev(s.cpis) * out.MeanIPC * out.MeanIPC
		out.IPCCI95 = stats.CI95(s.cpis) * out.MeanIPC * out.MeanIPC
	}
	out.Stats.IPC = out.MeanIPC
	// Skipped = everything the run covered that was not measured.
	if out.TotalInstr > out.Stats.Committed {
		out.Stats.Skipped = out.TotalInstr - out.Stats.Committed
	}
	out.DL1Miss = s.dl1.MissRatio()
	out.L2Local = s.l2.MissRatio()
	out.TLBMiss = s.tlb.MissRatio()
	out.BrAcc = out.Stats.CondAccuracy()
	return out
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

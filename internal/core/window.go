package core

import (
	"context"
	"errors"
	"io"

	"largewindow/internal/bpred"
	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/mem"
	"largewindow/internal/telemetry"
)

// Window describes one detailed window: where it starts, what warm state
// it inherits, and how far it runs. The zero value is a fully detailed
// run from program entry to halt.
type Window struct {
	// Start is the functional state the window starts from (nil = program
	// entry). Resolving it — a session's shared checkpoint cache, a direct
	// emu.BuildCheckpoint, the sampler's live emulator — is the caller's.
	Start *emu.Checkpoint
	// Hier and Bpred, when non-nil, replace the fresh processor's cold
	// cache hierarchy and branch predictor (see AdoptWarmState).
	Hier  *mem.Hierarchy
	Bpred *bpred.Predictor
	// PreRun, when non-nil, sees the restored processor before telemetry
	// attaches and the clock starts (fault injection, tracing hooks).
	PreRun func(*Processor)
	// Telemetry, when non-nil, receives the cycle-sampled JSONL series,
	// one sample every SampleInterval cycles (0 = the collector's default).
	Telemetry      io.Writer
	SampleInterval int64
	// Warmup instructions run in detail before the measured window opens
	// and are excluded from the result. Measure bounds the measured window
	// (0 = to completion); MaxCycles bounds the processor's clock across
	// both (0 = unbounded).
	Warmup, Measure uint64
	MaxCycles       int64
}

// WindowResult is what one detailed window measured. It is returned by
// value and holds the processor only for the caller's immediate use
// (pipeline dumps, lifecycle traces): nothing that outlives the call may
// keep Proc, or every finished cell pins a whole core.
type WindowResult struct {
	// Stats and the cache/TLB counters cover the measured window only:
	// they are deltas from the point the warm-up completed.
	Stats        Stats
	L1D, L2, TLB mem.CacheStats
	// Warmed is how many instructions the detailed warm-up committed
	// before the window opened (commit can overshoot Window.Warmup by up
	// to a commit group), so Warmed+Stats.Committed is how far the
	// processor ran.
	Warmed uint64
	// Measured reports that the window opened. It is false when the
	// program halted, or MaxCycles ran out, inside the warm-up; Stats is
	// then zero.
	Measured bool
	// Halted reports that the program ran to completion, as opposed to
	// exhausting a budget.
	Halted bool
	// TelemetryErr is the collector's close error (nil without telemetry).
	// What to do with it is the caller's policy.
	TelemetryErr error
	// Proc is the processor the window ran on, also when RunWindow
	// returns an error (nil only when construction itself failed).
	Proc *Processor
}

type labelsKey struct{}

type runLabels struct{ bench, scale string }

// WithLabels returns a context under which RunWindow stamps bench and
// scale on every structured failure, so a crash dump names the workload
// it came from. The labels ride the context, not the Window, because a
// sampled cell's windows are opened inside sample.Run, which takes a
// context and a program but no workload identity.
func WithLabels(ctx context.Context, bench, scale string) context.Context {
	return context.WithValue(ctx, labelsKey{}, runLabels{bench, scale})
}

// RunWindow is the one place a detailed processor is built and run:
//
//	New → AdoptWarmState → RestoreCheckpoint → PreRun → AttachTelemetry
//	    → RunContext(warm-up) → RunContext(measure) → Collector.Close
//
// The order is fixed by what each step needs (DESIGN.md §5.1): adoption
// and restore demand a processor that has not run; restore replays the
// checkpoint's warm log into whichever hierarchy and predictor are in
// place, so adoption comes first; the hook must see restored state; and
// both budgets are absolute committed counts on one continuing processor,
// so the measured run picks up exactly where the warm-up stopped.
//
// A budget running out is a normal outcome (Halted == false), as is the
// program halting; anything else is returned as the error, a *SimError
// carrying the context's labels.
func RunWindow(ctx context.Context, cfg Config, prog *isa.Program, w Window) (WindowResult, error) {
	p, err := New(cfg, prog)
	if err != nil {
		return WindowResult{}, err
	}
	res := WindowResult{Proc: p}
	if w.Hier != nil || w.Bpred != nil {
		if err := p.AdoptWarmState(w.Hier, w.Bpred); err != nil {
			return res, err
		}
	}
	if w.Start != nil {
		if err := p.RestoreCheckpoint(w.Start); err != nil {
			return res, err
		}
	}
	if w.PreRun != nil {
		w.PreRun(p)
	}
	var col *telemetry.Collector
	if w.Telemetry != nil {
		col = telemetry.NewCollector(w.Telemetry, w.SampleInterval)
		p.AttachTelemetry(col)
	}
	st, err := p.measure(ctx, w, &res)
	if col != nil {
		res.TelemetryErr = col.Close(st.Cycles)
	}
	if err != nil {
		label(ctx, err)
	}
	return res, err
}

// label stamps the context's workload labels on a structured failure.
func label(ctx context.Context, err error) {
	var se *SimError
	if l, ok := ctx.Value(labelsKey{}).(runLabels); ok && errors.As(err, &se) {
		se.Bench, se.Scale = l.bench, l.scale
	}
}

// measure runs the warm-up and the measured window on a prepared
// processor, filling res. It returns the processor's cumulative stats
// (never nil) and the failure, if the run ended in one.
func (p *Processor) measure(ctx context.Context, w Window, res *WindowResult) (*Stats, error) {
	var pre Stats
	if w.Warmup > 0 {
		st, err := p.RunContext(ctx, w.Warmup, w.MaxCycles)
		if err != nil && !errors.Is(err, ErrBudget) {
			return st, err
		}
		if err == nil || st.Committed < w.Warmup {
			res.Halted = err == nil
			return st, nil
		}
		pre = *st
	}
	l1d, l2 := p.hier.L1DStats(), p.hier.L2Stats()
	tlbAcc, tlbMiss := p.hier.TLBStats()

	budget := w.Measure
	if budget > 0 {
		budget += w.Warmup
	}
	st, err := p.RunContext(ctx, budget, w.MaxCycles)
	if err != nil && !errors.Is(err, ErrBudget) {
		return st, err
	}
	res.Measured = true
	res.Halted = err == nil
	res.Warmed = pre.Committed
	res.Stats = st.Delta(pre)
	res.L1D = p.hier.L1DStats().Sub(l1d)
	res.L2 = p.hier.L2Stats().Sub(l2)
	acc, miss := p.hier.TLBStats()
	res.TLB = mem.CacheStats{Accesses: acc - tlbAcc, Misses: miss - tlbMiss}
	return st, nil
}

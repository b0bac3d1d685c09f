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

// runSerial is Run as one loop: stream to window k's start, snapshot,
// run the window, fold it, and only then go on to window k+1. It is the
// differential oracle of the concurrent Run (TestRunParallelMatchesSerial):
// Run must return a DeepEqual Outcome and fire the same progress calls.
// The plan must be resolved and valid.
func runSerial(ctx context.Context, cfg core.Config, prog *isa.Program, plan Plan, maxCycles int64, progress Progress) (*Outcome, error) {
	out := &Outcome{Plan: plan}
	m := emu.New(prog)
	warm := core.WarmSink{H: mem.NewHierarchy(cfg.Mem), BP: bpred.New(cfg.Bpred)}

	// Aggregated measured-window memory-system counters.
	var dl1, l2, tlb mem.CacheStats
	var cpis []float64
	var end uint64 // where the previous window's core stopped

	for k := 0; k < plan.Intervals; k++ {
		start := max(plan.Offset(k), end)
		if start > m.InstrCount {
			if _, err := m.RunSink(start-m.InstrCount, warm); err != nil && !errors.Is(err, emu.ErrNotHalted) {
				return nil, fmt.Errorf("sample: fast-forward to interval %d of %s: %w", k, prog.Name, err)
			}
		}
		out.TotalInstr = m.InstrCount
		if m.Halted {
			out.Halted = true
			break
		}

		w, err := core.RunWindow(ctx, cfg, prog, core.Window{
			Start:     m.Checkpoint(),
			Hier:      warm.H.CloneInto(nil),
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
		end = start + w.Warmed + w.Stats.Committed
		out.TotalInstr = end
		if w.Halted {
			// The program halted inside the detailed window: the partial
			// window above (if any) is the final interval.
			out.Halted = true
			break
		}
	}

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

package sample

import (
	"context"
	"testing"

	"largewindow/internal/bpred"
	"largewindow/internal/core"
	"largewindow/internal/mem"
	"largewindow/internal/workload"
)

// TestRunWindowAllocBudget gates what one sampled window costs the pass.
// Each window is built around its snapshot, so it allocates at most a
// processor's own structures — core.New's allocations less a cold
// hierarchy's, predictor's and memory image's — plus windowSlack: the
// checkpoint, the restore, the goroutine's bookkeeping and what a short
// window grows (the event queue, waiter blocks, the WIB's column
// scratch) and, on em3d, which stores the most, page runs: a checkpoint
// shares every page, so the pass and the window each copy the pages they
// store to. The cost is taken as the difference between plans of 2n and
// n windows, so the pass's fixed costs and the first snapshots (at most
// one per window in flight) drop out. These four cells measure 55.2,
// 33.1, 101.6–101.9 and 58.1 allocations a window, against budgets of
// 78, 78, 103 and 103. A second clone of the memory image per window (a
// frozen checkpoint that the restore copies) adds 3: 58.2, 36.1, 104.6
// and 61.1, over budget on WIB/2048 em3d. When the restore also built a
// throwaway emu.Machine, boxed a warm sink with no log to replay and the
// window travelled as its goroutine's argument, they measured 61.4,
// 39.2, 107.8 and 64.2; when every window also built and dropped a cold
// hierarchy, predictor and image, cloned a fresh predictor and grew its
// waiter lists by append, 118, 132, 175 and 158, over budget on all four.
func TestRunWindowAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 24 sampled passes")
	}
	const n, windowSlack = 8, 57
	for _, cfg := range []core.Config{core.DefaultConfig(), core.WIBDefault()} {
		for _, name := range []string{"em3d", "gcc"} {
			spec, ok := workload.Get(name)
			if !ok {
				t.Fatalf("no kernel %q", name)
			}
			prog := spec.Build(workload.ScaleRun)
			pass := func(windows int) float64 {
				plan := Plan{Intervals: windows, Period: 20_000, Warmup: 500, Length: 2000}
				return testing.AllocsPerRun(2, func() {
					out, err := Run(context.Background(), cfg, prog, plan, 0, nil)
					if err != nil {
						t.Fatal(err)
					}
					if len(out.IntervalIPCs) != windows {
						t.Fatalf("%s/%s: %d of %d windows measured", cfg.Name, name, len(out.IntervalIPCs), windows)
					}
				})
			}
			perWindow := (pass(2*n) - pass(n)) / n
			processor := testing.AllocsPerRun(3, func() {
				if _, err := core.New(cfg, prog); err != nil {
					t.Fatal(err)
				}
			})
			cold := testing.AllocsPerRun(3, func() {
				mem.NewHierarchy(cfg.Mem)
				bpred.New(cfg.Bpred)
				prog.NewMemoryImage()
			})
			t.Logf("%s/%s: %.1f allocations a window; core.New %.0f, of them cold state %.0f", cfg.Name, name, perWindow, processor, cold)
			if budget := processor - cold + windowSlack; perWindow > budget {
				t.Errorf("%s/%s: a window allocates %.1f, budget is core.New's %.0f less its cold state's %.0f, + %d",
					cfg.Name, name, perWindow, processor, cold, windowSlack)
			}
		}
	}
}

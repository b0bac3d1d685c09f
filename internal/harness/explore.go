package harness

import (
	"errors"
	"fmt"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/model"
	"largewindow/internal/stats"
)

// ExploreOptions is an exploration's pruning policy (see model.Pruning).
type ExploreOptions = model.Pruning

// ExploreGrid is the default WIB/cache geometry space for `experiments
// -explore`: the conventional window-scaling extremes (which double as
// the conv-family calibration anchors), the WIB capacity ladder at the
// paper's 64 bit-vectors, the bit-vector extremes at 2K entries, and
// two alternative-area-use points that spend the budget on L2 capacity
// instead — a grid whose Pareto frontier trades suite IPC against
// bit-vector bits and cache bytes.
func ExploreGrid() []core.Config {
	grid := []core.Config{
		core.DefaultConfig(),          // conv anchor, small window
		core.ScaledConfig(2048, 2048), // conv anchor, large window
	}
	for _, n := range []int{256, 512, 1024, 2048, 4096} {
		grid = append(grid, core.WIBConfigSized(n, 64))
	}
	for _, bv := range []int{16, 1024} {
		grid = append(grid, core.WIBConfigSized(2048, bv))
	}
	bigL2 := core.DefaultConfig()
	bigL2.Mem.L2.SizeBytes = 1 << 20
	bigL2.Name = "32-IQ/128/1MB-L2"
	wibBigL2 := core.WIBConfigSized(2048, 64)
	wibBigL2.Mem.L2.SizeBytes = 1 << 20
	wibBigL2.Name += "/1MB-L2"
	return append(grid, bigL2, wibBigL2)
}

// Explore runs a model-pruned sweep of cfgs over the session's selected
// workloads: one fast functional profiling pass per (workload, cache
// family), interval-model predictions for every cell, detailed
// simulation only of the calibration anchors, the predicted top-K
// configs, and a seeded audit slice that measures live model error.
// Simulated cells are ordinary content-addressed campaign cells, and a
// batch runs as RunAll runs a sweep: primed onto the engine in order and
// collected in that order, so Options.Parallel bounds how many run at
// once. Each cell holds its workload's program from the batch's start
// until the cell ends, so a workload's cells share one build and at most
// Parallel + 1 programs are built and alive at once. Pruned and audited
// counts surface on the campaign progress line via the engine's model
// counters. A session that skips or samples is refused: the model
// profiles each workload from its first instruction to MaxInstr, so it
// would be calibrated on one region and predict another. A session whose
// context is done profiles nothing.
func (s *Session) Explore(cfgs []core.Config, opt ExploreOptions) (*model.Report, error) {
	if s.opt.SkipInstr > 0 || s.opt.Sampling != nil {
		return nil, errors.New("harness: explore profiles each workload from its first instruction; a session that skips or samples measures another region")
	}
	if ctx := s.opt.Context; ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	srcs, err := s.benchmarks()
	if err != nil {
		return nil, err
	}
	benches := make([]string, len(srcs))
	byBench := make(map[string]int, len(srcs))
	for i, src := range srcs {
		benches[i] = resultKey(src)
		byBench[benches[i]] = i
	}
	space := &model.Space{
		Configs:      cfgs,
		Benches:      benches,
		Scale:        s.opt.Scale,
		ProfileInstr: s.opt.MaxInstr, // the model predicts the region the detailed core measures
		Pruning:      opt,
		Exec: func(batch []model.Cell) []model.Measured {
			cells := make([]campaign.Cell, len(batch))
			for k, c := range batch {
				src := srcs[byBench[c.Bench]]
				cells[k] = s.cell(c.Config, src)
				s.holdUntilEnd(cells[k], s.programs.Hold(programKey(src, s.opt.Scale)))
			}
			s.eng.Prime(cells)
			out := make([]model.Measured, len(batch))
			for k, c := range batch {
				r, err := s.Run(c.Config, srcs[byBench[c.Bench]])
				s.cellEnded(cells[k])
				if err != nil {
					out[k].Err = err
					continue
				}
				out[k] = model.Measured{Cycles: uint64(r.Stats.Cycles), IPC: r.IPC}
			}
			return out
		},
		Notify: func(pruned, audited int) {
			s.modelPruned.Add(uint64(pruned))
			s.modelAudited.Add(uint64(audited))
		},
	}
	if s.opt.Log != nil {
		space.Logf = func(format string, args ...any) {
			fmt.Fprintf(s.opt.Log, "  "+format+"\n", args...)
		}
	}
	return space.Explore()
}

// ExploreTables renders an exploration report as the harness's table
// format: the Pareto summary over configs (suite IPC vs bit-vector and
// cache budgets) and the audit accounting.
func ExploreTables(rep *model.Report) []*stats.Table {
	t := &stats.Table{
		Title:   "Model-pruned design-space exploration",
		Headers: []string{"config", "suite IPC", "bv bits", "cache KB", "source", "pareto"},
	}
	for _, cs := range rep.Configs {
		src := "model"
		if cs.Simulated {
			src = "detailed"
		}
		mark := ""
		if cs.Frontier {
			mark = "*"
		}
		t.AddRow(cs.Config, cs.SuiteIPC, cs.BitVectorBits, cs.CacheBytes/1024, src, mark)
	}
	t.AddNote("%d cells: %d simulated (%d anchors, %d audit), %d pruned by the model",
		rep.TotalCells, rep.Simulated, rep.Anchors, rep.Audited, rep.Pruned)
	if rep.Audited > 0 {
		t.AddNote("audit slice model error: %.1f%% mean abs cycles", rep.AuditErrPct)
	}
	t.AddNote("* = Pareto frontier (max suite IPC, min bit-vector bits, min cache bytes)")
	return []*stats.Table{t}
}

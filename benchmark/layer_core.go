package main

import (
	"context"
	"errors"
	"runtime"

	"largewindow"
	"largewindow/internal/bpred"
	"largewindow/internal/core"
	"largewindow/internal/emu"
	"largewindow/internal/mem"
	"largewindow/internal/stats"
	"largewindow/internal/workload"
)

// cfgTag names a configuration in metric names.
func cfgTag(cfg core.Config) string {
	if cfg.WIB != nil {
		return "wib"
	}
	return "base"
}

// coreRun is one detailed run composed from the core's public functions.
type coreRun struct {
	stats   core.Stats
	proc    *core.Processor
	secs    float64 // RunContext alone
	newSecs float64 // core.New alone
	restore float64 // RestoreCheckpoint alone
	child   float64 // every child span of the cell
	mallocs uint64  // during RunContext alone
}

// runCell composes what SimulateContext does for one plain or
// checkpointed cell from the packages' public functions, a span around
// each: build (unless prog is given), core.New, RestoreCheckpoint (when
// cp is given), RunContext.
func runCell(lc *layerCtx, label string, src largewindow.Workload, scale largewindow.Scale,
	prog *largewindow.Program, cfg core.Config, cp *emu.Checkpoint, budget uint64) (*coreRun, error) {
	cell := lc.tr.begin(root(0), "facade", "cell", label)
	defer lc.tr.end(cell)
	r := &coreRun{}
	var err error
	if prog == nil {
		r.child += lc.tr.call(cell, "workload", "Source.Build", label, func() { prog, err = src.Build(scale) })
		if err != nil {
			return nil, err
		}
	}
	r.newSecs = lc.tr.call(cell, "core", "New."+cfgTag(cfg), label, func() { r.proc, err = core.New(cfg, prog) })
	r.child += r.newSecs
	if err != nil {
		return nil, err
	}
	if cp != nil {
		r.restore = lc.tr.call(cell, "core", "RestoreCheckpoint", label, func() { err = r.proc.RestoreCheckpoint(cp) })
		r.child += r.restore
		if err != nil {
			return nil, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var st *core.Stats
	r.secs = lc.tr.call(cell, "core", "RunContext."+cfgTag(cfg), label, func() {
		st, err = r.proc.RunContext(context.Background(), budget, 0)
	})
	runtime.ReadMemStats(&m1)
	r.child += r.secs
	r.mallocs = m1.Mallocs - m0.Mallocs
	if err != nil && !errors.Is(err, core.ErrBudget) {
		return nil, err
	}
	r.stats = *st
	return r, nil
}

func (r *coreRun) result(label string) cellResult {
	return cellResult{Cell: label, Skipped: r.stats.Skipped, Committed: r.stats.Committed,
		Cycles: r.stats.Cycles, Hash: r.stats.StreamHash}
}

// coreAgg sums the runs of one configuration: host time against
// simulated counts.
type coreAgg struct {
	cells                          int
	committed, cycles              float64
	secs, child, newSecs, restore  float64
	oldenCommitted, oldenSecs      float64
	mallocs                        float64
	ffSkipped                      float64
	invIPC, rob, mlp               float64
	wibIns, wibReins, bvStalls     float64
	replays, squashed, fetched     float64
	condBr, condOK                 float64
	l1dAcc, l1dMiss, l2Acc, l2Miss float64
	tlbAcc, tlbMiss, l1iAcc        float64
	ipcBySuite                     map[workload.Suite]map[string]float64
}

func (a *coreAgg) add(src largewindow.Workload, r *coreRun) {
	st := &r.stats
	a.cells++
	a.committed += float64(st.Committed)
	a.cycles += float64(st.Cycles)
	a.secs += r.secs
	a.child += r.child
	a.newSecs += r.newSecs
	a.restore += r.restore
	a.mallocs += float64(r.mallocs)
	if src.Suite() == workload.SuiteOlden {
		a.oldenCommitted += float64(st.Committed)
		a.oldenSecs += r.secs
	}
	skipped, _ := r.proc.FastForwardStats()
	a.ffSkipped += float64(skipped)
	a.invIPC += ratio(1, st.IPC)
	a.rob += st.AvgROBOccupancy()
	a.mlp += st.AvgMLP()
	a.wibIns += float64(st.WIBInsertions)
	a.wibReins += float64(st.WIBReinsertions)
	a.bvStalls += float64(st.BitVectorStalls)
	a.replays += float64(st.Replays)
	a.squashed += float64(st.SquashedInstrs)
	a.fetched += float64(st.FetchedInstrs)
	a.condBr += float64(st.CondBranches)
	a.condOK += float64(st.CondCorrect)
	h := r.proc.Hierarchy()
	l1d, l2, l1i := h.L1DStats(), h.L2Stats(), h.L1IStats()
	a.l1dAcc += float64(l1d.Accesses)
	a.l1dMiss += float64(l1d.Misses)
	a.l2Acc += float64(l2.Accesses)
	a.l2Miss += float64(l2.Misses)
	a.l1iAcc += float64(l1i.Accesses)
	ta, tm := h.TLBStats()
	a.tlbAcc += float64(ta)
	a.tlbMiss += float64(tm)
	if a.ipcBySuite == nil {
		a.ipcBySuite = map[workload.Suite]map[string]float64{}
	}
	if a.ipcBySuite[src.Suite()] == nil {
		a.ipcBySuite[src.Suite()] = map[string]float64{}
	}
	a.ipcBySuite[src.Suite()][src.Name()] = st.IPC
}

// hostMetrics records the configuration's host-time metrics: RunContext
// alone, program and processor prebuilt.
func (a *coreAgg) hostMetrics(lc *layerCtx, tag string) {
	lc.m.set("core.run_kinstrs_per_s."+tag, ratio(a.committed/1e3, a.secs), a.cells)
	lc.m.set("core.run_ns_per_cycle."+tag, ratio(a.secs*1e9, a.cycles), a.cells)
	lc.m.set("core.run_allocs_per_kinstr."+tag, ratio(a.mallocs, a.committed/1e3), a.cells)
	if tag == "wib" {
		lc.m.set("core.run_kinstrs_per_s.wib.olden", ratio(a.oldenCommitted/1e3, a.oldenSecs), a.cells)
	}
	lc.m.set("core.ff_skipped_cycle_frac", ratio(a.ffSkipped, a.cycles), a.cells)
}

// simMetrics records the simulated-time metrics: exact per seed, and what
// host time should move with.
func (a *coreAgg) simMetrics(lc *layerCtx) {
	n := a.cells
	kinstr := a.committed / 1e3
	lc.m.set("core.sim_cycles", a.cycles, n)
	lc.m.set("core.ipc_hmean", ratio(float64(n), a.invIPC), n)
	lc.m.set("core.wib_insertions_per_kinstr", ratio(a.wibIns, kinstr), n)
	lc.m.set("core.wib_reinsertions_per_kinstr", ratio(a.wibReins, kinstr), n)
	lc.m.set("core.bitvector_stalls_per_kinstr", ratio(a.bvStalls, kinstr), n)
	lc.m.set("core.replays_per_kinstr", ratio(a.replays, kinstr), n)
	lc.m.set("core.squashed_frac", ratio(a.squashed, a.fetched), n)
	lc.m.set("core.avg_rob_occupancy", ratio(a.rob, float64(n)), n)
	lc.m.set("core.avg_mlp", ratio(a.mlp, float64(n)), n)
	lc.m.set("mem.l1d_miss_ratio", ratio(a.l1dMiss, a.l1dAcc), n)
	lc.m.set("mem.l2_local_miss_ratio", ratio(a.l2Miss, a.l2Acc), n)
	lc.m.set("mem.tlb_miss_ratio", ratio(a.tlbMiss, a.tlbAcc), n)
	lc.m.set("mem.accesses_per_kinstr", ratio(a.l1dAcc+a.l1iAcc, kinstr), n)
	lc.m.set("bpred.cond_accuracy", ratio(a.condOK, a.condBr), n)
}

// fig4Speedups records the paper's Figure 4 series: the mean WIB-over-
// Base IPC ratio per suite, both at the same budget.
func fig4Speedups(lc *layerCtx, wib, base *coreAgg) {
	for suite, name := range map[workload.Suite]string{
		workload.SuiteInt: "int", workload.SuiteFP: "fp", workload.SuiteOlden: "olden"} {
		var xs []float64
		for kernel, ipc := range wib.ipcBySuite[suite] {
			xs = append(xs, stats.Speedup(ipc, base.ipcBySuite[suite][kernel]))
		}
		lc.m.set("core.fig4_speedup."+name, stats.ArithMean(xs), len(xs))
	}
}

// coreConstruct times core.New for both configurations over prog.
func coreConstruct(prog *largewindow.Program) probe {
	return func(lc *layerCtx) error {
		const n = 20
		for _, cfg := range bothConfigs() {
			var err error
			id := lc.tr.begin(root(0), "core", "New."+cfgTag(cfg), "")
			for i := 0; i < n && err == nil; i++ {
				_, err = core.New(cfg, prog)
			}
			secs := lc.tr.end(id)
			if err != nil {
				return err
			}
			lc.m.set("core.new_ms."+cfgTag(cfg), secs*1e3/n, n)
		}
		return nil
	}
}

// coreShortWindows measures what a sampled cell's windows cost: for both
// configurations, warm a hierarchy and predictor over the program's
// first half with RunSink, then repeatedly take a checkpoint, build a
// core, adopt the warm state, restore, and run one 9k-instruction window.
func coreShortWindows(prog *largewindow.Program, total uint64) probe {
	return func(lc *layerCtx) error {
		const (
			windows = 8
			window  = 9_000
		)
		var ckptSecs, adoptSecs, runSecs, committed float64
		for _, cfg := range bothConfigs() {
			m := emu.New(prog)
			h, bp := mem.NewHierarchy(cfg.Mem), bpred.New(cfg.Bpred)
			sink := warmSink{h, bp}
			if _, err := m.RunSink(total/2, sink); err != nil && !errors.Is(err, emu.ErrNotHalted) {
				return err
			}
			for i := 0; i < windows && !m.Halted; i++ {
				var cp *emu.Checkpoint
				ckptSecs += lc.tr.call(root(0), "emu", "Machine.Checkpoint", "", func() { cp = m.Checkpoint() })
				p, err := core.New(cfg, prog)
				if err != nil {
					return err
				}
				h.ResetTiming()
				adoptSecs += lc.tr.call(root(0), "core", "AdoptWarmState", "", func() { err = p.AdoptWarmState(h, bp.Clone()) })
				if err == nil {
					err = p.RestoreCheckpoint(cp)
				}
				if err != nil {
					return err
				}
				var st *core.Stats
				runSecs += lc.tr.call(root(0), "core", "RunContext.window", "", func() {
					st, err = p.RunContext(context.Background(), window, 0)
				})
				if err != nil && !errors.Is(err, core.ErrBudget) {
					return err
				}
				committed += float64(st.Committed)
				if _, err := m.RunSink(st.Committed, sink); err != nil && !errors.Is(err, emu.ErrNotHalted) {
					return err
				}
			}
		}
		lc.m.set("emu.ckpt_take_us", ckptSecs*1e6/(2*windows), 2*windows)
		lc.m.set("core.adopt_warm_us", adoptSecs*1e6/(2*windows), 2*windows)
		lc.m.set("core.short_window_kinstrs_per_s", ratio(committed/1e3, runSecs), 2*windows)
		return nil
	}
}

// warmSink feeds a functional stream into a hierarchy and a predictor
// through their warm calls, as sampling does between windows.
type warmSink struct {
	h  *mem.Hierarchy
	bp *bpred.Predictor
}

func (w warmSink) WarmFetch(line uint64) { w.h.WarmFetch(line) }
func (w warmSink) WarmLoad(a uint64)     { w.h.WarmLoad(a) }
func (w warmSink) WarmStore(a uint64)    { w.h.WarmStore(a) }
func (w warmSink) WarmBranch(b emu.WarmBranch) {
	w.bp.WarmBranch(b.PC, b.Target, b.Taken, b.Cond, b.BTB)
}

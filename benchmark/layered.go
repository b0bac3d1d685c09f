package main

import (
	"time"

	"largewindow"
	"largewindow/internal/emu"
)

// resultFrom assembles the facade's Result from a composed run, as
// SimulateContext does.
func resultFrom(r *coreRun) *largewindow.Result {
	h := r.proc.Hierarchy()
	return &largewindow.Result{
		Stats:            r.stats,
		DL1MissRatio:     h.L1DStats().MissRatio(),
		L2LocalMissRatio: h.L2Stats().MissRatio(),
		TLBMissRatio:     h.TLBMissRatio(),
	}
}

// layeredFig4 runs the 18 kernels on one configuration composed from
// workload.Build, core.New and core.RunContext, then the probes of the
// layers only reachable inside RunContext, on the kernels' own streams.
func layeredFig4(e *env, lc *layerCtx, cfg largewindow.Config, budget uint64) error {
	srcs, err := parseRefs(largewindow.BenchmarkNames(), e.sz.scale)
	if err != nil {
		return err
	}
	agg := &coreAgg{}
	var results []*largewindow.Result
	t0 := time.Now()
	for _, src := range srcs {
		r, err := runCell(lc, src.Name(), src, e.sz.scale, nil, cfg, nil, budget)
		if err != nil {
			return err
		}
		agg.add(src, r)
		lc.cells = append(lc.cells, r.result(src.Name()))
		results = append(results, resultFrom(r))
	}
	lc.cellsWall = time.Since(t0).Seconds()
	agg.hostMetrics(lc, cfgTag(cfg))
	agg.simMetrics(lc)
	facadeGlue(lc, agg.child, agg.cells)

	stream, err := captureOf(srcs, e.sz.scale, budget, e.sz.probeEvents)
	if err != nil {
		return err
	}
	// gzip is the kernel bench_test.go's throughput benchmarks run.
	gzip, err := largewindow.ParseWorkloadRef("gzip")
	if err != nil {
		return err
	}
	gzipProg, err := gzip.Build(e.sz.scale)
	if err != nil {
		return err
	}
	probes := []probe{
		facadeResultJSON(results),
		workloadBuild("workload.build_ms_per_prog", srcs, e.sz.scale),
		memTimed(stream, cfg.Mem),
		bpredPredictCommit(stream, cfg.Bpred),
		heapPushPop(e.seed),
		telemetrySampler(gzipProg, cfg, budget),
	}
	if cfg.WIB != nil {
		// The paper's Figure 4 series needs Base at the WIB budget.
		base := &coreAgg{}
		for _, src := range srcs {
			r, err := runCell(lc, src.Name()+"/base-ref", src, e.sz.scale, nil, largewindow.BaseConfig(), nil, budget)
			if err != nil {
				return err
			}
			base.add(src, r)
		}
		fig4Speedups(lc, agg, base)
		probes = append(probes, regfileReadDelay(e.seed))
	} else {
		probes = append(probes,
			traceRoundTrip(gzip, e.sz.scale, e.sz.probeInstr),
			harnessVsFacade(e))
	}
	return lc.run(probes...)
}

// layeredEmuFF runs the fast-forward cells composed from workload.Build,
// emu.BuildCheckpoint, core.New, RestoreCheckpoint and RunContext.
func layeredEmuFF(e *env, lc *layerCtx) error {
	srcs, err := parseRefs(ffKernels, e.sz.ffScale)
	if err != nil {
		return err
	}
	aggs := map[string]*coreAgg{"base": {}, "wib": {}}
	all := &coreAgg{}
	var ffSecs, ffInstrs float64
	var lastProg *largewindow.Program
	var lastCP *emu.Checkpoint
	t0 := time.Now()
	for _, src := range srcs {
		name := src.Name()
		ff := lc.tr.begin(root(0), "facade", "cell", "ff:"+name)
		var prog *largewindow.Program
		var cp *emu.Checkpoint
		var err error
		lc.tr.call(ff, "workload", "Source.Build", name, func() { prog, err = src.Build(e.sz.ffScale) })
		if err != nil {
			return err
		}
		ffSecs += lc.tr.call(ff, "emu", "BuildCheckpoint", name, func() { cp, err = emu.BuildCheckpoint(prog, e.sz.ffSkip) })
		lc.tr.end(ff)
		if err != nil {
			return err
		}
		ffInstrs += float64(cp.InstrCount)
		lc.cells = append(lc.cells, cellResult{Cell: "ff:" + name, Skipped: cp.InstrCount, Hash: cp.StreamHash})
		for _, cfg := range bothConfigs() {
			label := name + "/" + cfg.Name
			r, err := runCell(lc, label, src, e.sz.ffScale, prog, cfg, cp, e.sz.ffMeasure)
			if err != nil {
				return err
			}
			aggs[cfgTag(cfg)].add(src, r)
			all.add(src, r)
			lc.cells = append(lc.cells, r.result(label))
		}
		lastProg, lastCP = prog, cp
	}
	lc.cellsWall = time.Since(t0).Seconds()
	lc.m.set("emu.runwarm_minstrs_per_s", ratio(ffInstrs/1e6, ffSecs), len(srcs))
	lc.m.set("core.restore_ms", ratio(all.restore*1e3, float64(all.cells)), all.cells)
	for tag, a := range aggs {
		lc.m.set("core.new_ms."+tag, ratio(a.newSecs*1e3, float64(a.cells)), a.cells)
	}
	all.simMetrics(lc)
	return lc.run(
		workloadBuild("workload.build_ms_per_prog", srcs, e.sz.ffScale),
		emuRun(lastProg, e.sz.ffSkip),
		emuRestore(lastProg, lastCP),
	)
}

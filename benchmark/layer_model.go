package main

import (
	"time"

	"largewindow"
	"largewindow/internal/core"
	"largewindow/internal/harness"
	"largewindow/internal/model"
)

// modelCollectPredict composes the model tier from its public functions:
// one model.Collect per (workload, cache family) of the grid, then
// model.Predict for every grid cell.
func modelCollectPredict(srcs []largewindow.Workload, e *env) probe {
	return func(lc *layerCtx) error {
		grid := harness.ExploreGrid()
		families := map[string][]core.Config{}
		var keys []string
		for _, cfg := range grid {
			k := model.MemKey(cfg.Mem)
			if families[k] == nil {
				keys = append(keys, k)
			}
			families[k] = append(families[k], cfg)
		}
		var collectSecs, predictSecs float64
		var profiles, predictions int
		for _, src := range srcs {
			prog, err := src.Build(e.sz.scale)
			if err != nil {
				return err
			}
			for _, k := range keys {
				cfgs := families[k]
				var prof *model.Profile
				collectSecs += lc.tr.call(root(0), "model", "Collect", src.Name(), func() {
					prof, err = model.Collect(prog, e.sz.scale.String(), model.CollectOptions{
						MaxInstr: e.sz.exploreInstr, Mem: cfgs[0].Mem, Bpred: cfgs[0].Bpred})
				})
				if err != nil {
					return err
				}
				profiles++
				id := lc.tr.begin(root(0), "model", "Predict", src.Name())
				for _, cfg := range cfgs {
					model.Predict(prof, cfg)
				}
				predictSecs += lc.tr.end(id)
				predictions += len(cfgs)
			}
		}
		lc.m.set("model.collect_ms_per_profile", ratio(collectSecs*1e3, float64(profiles)), profiles)
		lc.m.set("model.predict_us", ratio(predictSecs*1e6, float64(predictions)), predictions)
		return nil
	}
}

// layeredExplore runs the exploration under a span, resumes it from the
// store it wrote, composes the model tier from its public functions, and
// probes the campaign tier and the profile paths of emu, mem and bpred.
func layeredExplore(e *env, lc *layerCtx) error {
	srcs, err := parseRefs(exploreRefs(e), e.sz.scale)
	if err != nil {
		return err
	}
	dir, err := e.tempDir()
	if err != nil {
		return err
	}
	var rep *model.Report
	t0 := time.Now()
	lc.tr.call(root(0), "harness", "Session.Explore", "", func() { rep, err = exploreOnce(e, dir, false) })
	if err != nil {
		return err
	}
	lc.cellsWall = time.Since(t0).Seconds()
	lc.cells = reportCells(rep)
	lc.m.set("model.pruned_frac", ratio(float64(rep.Pruned), float64(rep.TotalCells)), rep.TotalCells)
	lc.m.set("model.simulated_cells", float64(rep.Simulated), rep.TotalCells)
	lc.m.set("model.audit_err_pct", rep.AuditErrPct, rep.Audited)

	// A second session over the same directory reads where the first wrote.
	var again *model.Report
	secs := lc.tr.call(root(0), "harness", "Session.Explore.resume", "", func() { again, err = exploreOnce(e, dir, true) })
	if err != nil {
		return err
	}
	if got, want := simDigest(cellTuples(reportCells(again))), simDigest(cellTuples(lc.cells)); got != want {
		lc.failf("resumed exploration digest %s, first run %s", got, want)
	}
	lc.m.set("campaign.resume_cells_per_s", ratio(float64(rep.Simulated), secs), rep.Simulated)

	prog, err := srcs[0].Build(e.sz.scale)
	if err != nil {
		return err
	}
	stream, err := captureOf(srcs, e.sz.scale, e.sz.exploreInstr, e.sz.probeEvents)
	if err != nil {
		return err
	}
	base := largewindow.BaseConfig()
	return lc.run(
		modelCollectPredict(srcs, e),
		emuRunProfile(prog, e.sz.probeInstr),
		memProfile(stream, base.Mem),
		bpredProfile(stream, base.Bpred),
		campaignCellID(),
		campaignEngine(),
		campaignStore(e),
		campaignCheckpoints(e, srcs[0]),
	)
}

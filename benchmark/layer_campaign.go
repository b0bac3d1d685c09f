package main

import (
	"sync/atomic"
	"time"

	"largewindow"
	"largewindow/internal/campaign"
	"largewindow/internal/emu"
	"largewindow/internal/harness"
)

// campaignCellID times the content-addressed cell identity: a canonical
// JSON encoding of the configuration and a sha256.
func campaignCellID() probe {
	return func(lc *layerCtx) error {
		const n = 2000
		id := lc.tr.begin(root(0), "campaign", "Cell.ID", "")
		for i := 0; i < n; i++ {
			fleetCell(i).ID()
		}
		lc.m.set("campaign.cell_id_us", lc.tr.end(id)*1e6/n, n)
		return nil
	}
}

// campaignEngine times the engine's dispatch around an executor that
// does nothing: queueing, single-flight memoization, worker hand-off.
func campaignEngine() probe {
	return func(lc *layerCtx) error {
		const n = 2000
		var ran atomic.Int64
		eng := campaign.NewEngine(func(c campaign.Cell) (*campaign.Record, error) {
			ran.Add(1)
			return noopExec(c)
		}, campaign.Options{Workers: exploreParallel()})
		var err error
		id := lc.tr.begin(root(0), "campaign", "Engine.Run", "")
		for i := 0; i < n && err == nil; i++ {
			_, err = eng.Run(fleetCell(i))
		}
		eng.Wait()
		secs := lc.tr.end(id)
		if err == nil && ran.Load() != n {
			lc.failf("engine executed %d of %d distinct cells", ran.Load(), n)
		}
		lc.m.set("campaign.engine_overhead_us_per_cell", secs*1e6/n, n)
		return err
	}
}

// campaignStore times Store.Put and Store.Get in a scratch directory.
func campaignStore(e *env) probe {
	return func(lc *layerCtx) error {
		const n = 500
		dir, err := e.tempDir()
		if err != nil {
			return err
		}
		store, err := campaign.NewStore(dir)
		if err != nil {
			return err
		}
		recs := make([]*campaign.Record, n)
		for i := range recs {
			cell := fleetCell(i)
			recs[i], _ = noopExec(cell)
			recs[i].CellID = cell.ID()
		}
		id := lc.tr.begin(root(0), "campaign", "Store.Put", "")
		for _, rec := range recs {
			if err = store.Put(rec); err != nil {
				break
			}
		}
		lc.m.set("campaign.store_put_us", lc.tr.end(id)*1e6/n, n)
		if err != nil {
			return err
		}
		id = lc.tr.begin(root(0), "campaign", "Store.Get", "")
		for _, rec := range recs {
			if got, gerr := store.Get(rec.CellID); gerr != nil || got == nil {
				lc.failf("store lost record %s: %v", rec.CellID, gerr)
			}
		}
		lc.m.set("campaign.store_get_us", lc.tr.end(id)*1e6/n, n)
		return nil
	}
}

// campaignCheckpoints times a hit in the shared checkpoint cache.
func campaignCheckpoints(e *env, src largewindow.Workload) probe {
	return func(lc *layerCtx) error {
		const n = 200
		prog, err := src.Build(e.sz.scale)
		if err != nil {
			return err
		}
		cache, err := campaign.NewCheckpoints("", nil)
		if err != nil {
			return err
		}
		key := campaign.CheckpointKey{Bench: src.Name(), Scale: e.sz.scale, Skip: e.sz.probeInstr}
		build := func() (*emu.Checkpoint, error) { return emu.BuildCheckpoint(prog, key.Skip) }
		if _, err := cache.Get(key, build); err != nil {
			return err
		}
		id := lc.tr.begin(root(0), "campaign", "Checkpoints.Get", src.Name())
		for i := 0; i < n && err == nil; i++ {
			_, err = cache.Get(key, build)
		}
		lc.m.set("campaign.ckpt_cache_get_ms", lc.tr.end(id)*1e3/n, n)
		if built, _ := cache.Counts(); built != 1 {
			lc.failf("checkpoint cache built %d checkpoints for one key", built)
		}
		return err
	}
}

// harnessVsFacade runs the 18 kernels on the base machine once through
// harness.Session.RunAll on one worker and once through the facade loop,
// at the same budget: the two copies of the plain-run path.
func harnessVsFacade(e *env) probe {
	return func(lc *layerCtx) error {
		budget := e.sz.wibInstr
		cfg := largewindow.BaseConfig()
		s := harness.NewSession(harness.Options{Parallel: 1, Scale: e.sz.scale, MaxInstr: budget})
		var err error
		viaHarness := lc.tr.call(root(0), "harness", "Session.RunAll", "", func() { _, err = s.RunAll(cfg) })
		if err != nil {
			return err
		}
		srcs, err := parseRefs(largewindow.BenchmarkNames(), e.sz.scale)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, src := range srcs {
			c := simCell{src: src, scale: e.sz.scale, cfg: cfg, opts: []largewindow.Option{largewindow.WithMaxInstr(budget)}}
			if _, err := c.run(); err != nil {
				return err
			}
		}
		lc.m.set("harness.runall_vs_facade_ratio", ratio(viaHarness, time.Since(t0).Seconds()), len(srcs))
		return nil
	}
}

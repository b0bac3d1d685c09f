package main

import (
	"context"
	"errors"
	"math"
	"time"

	"largewindow"
	"largewindow/internal/bpred"
	"largewindow/internal/emu"
	"largewindow/internal/mem"
	"largewindow/internal/sample"
)

// sampledCell is one sampled cell's outcome in the layered run.
type sampledCell struct {
	secs      float64
	ipc, ci95 float64
}

// layeredSampled runs the sampled suite through sample.ProgramLength and
// sample.Run directly, measures the seed's held-out synth cells in full
// detail for the accuracy metrics, and probes the layers a sampled cell
// drives differently from a plain one.
func layeredSampled(e *env, lc *layerCtx) error {
	plan, err := sample.Parse(e.sz.sampleSpec)
	if err != nil {
		return err
	}
	srcs, err := parseRefs(sampledRefs(e), e.sz.scale)
	if err != nil {
		return err
	}
	cfgs := bothConfigs()
	cells := map[string]sampledCell{}
	sizing := map[string]float64{}
	totals := map[string]uint64{}
	var sizingSecs, runSecs, detailed, covered float64
	var intervals int
	t0 := time.Now()
	for _, src := range srcs {
		name := src.Name()
		size := lc.tr.begin(root(0), "facade", "cell", "size:"+name)
		var prog *largewindow.Program
		var total uint64
		var err error
		lc.tr.call(size, "workload", "Source.Build", name, func() { prog, err = src.Build(e.sz.scale) })
		if err != nil {
			return err
		}
		lc.tr.call(size, "sample", "ProgramLength", name, func() { total, err = sample.ProgramLength(prog) })
		sizing[name] = lc.tr.end(size)
		sizingSecs += sizing[name]
		if err != nil {
			return err
		}
		totals[name] = total
		lc.cells = append(lc.cells, cellResult{Cell: "size:" + name, Committed: total})
		for _, cfg := range cfgs {
			label := name + "/" + cfg.Name
			cell := lc.tr.begin(root(0), "facade", "cell", label)
			lc.tr.call(cell, "workload", "Source.Build", label, func() { prog, err = src.Build(e.sz.scale) })
			if err != nil {
				return err
			}
			var out *sample.Outcome
			lc.tr.call(cell, "sample", "Run", label, func() {
				out, err = sample.Run(context.Background(), cfg, prog, plan.Resolve(total), 0, nil)
			})
			secs := lc.tr.end(cell)
			if err != nil {
				return err
			}
			runSecs += secs
			cells[label] = sampledCell{secs: secs, ipc: out.MeanIPC, ci95: out.IPCCI95}
			intervals += len(out.IntervalIPCs)
			detailed += float64(len(out.IntervalIPCs)) * float64(out.Plan.Detailed())
			covered += float64(out.TotalInstr)
			lc.cells = append(lc.cells, cellResult{Cell: label, Skipped: out.Stats.Skipped,
				Committed: out.Stats.Committed, Cycles: out.Stats.Cycles, Hash: math.Float64bits(out.MeanIPC)})
		}
	}
	lc.cellsWall = time.Since(t0).Seconds()
	n := len(srcs) * len(cfgs)
	lc.m.set("sample.sizing_s", sizingSecs, len(srcs))
	lc.m.set("sample.run_s", runSecs, n)
	lc.m.set("sample.intervals", float64(intervals), n)
	lc.m.set("sample.detailed_instr_frac", ratio(detailed, covered), n)

	// Held-out truth: the synth programs in full detail, which neither
	// the plan nor the model was tuned on.
	synth := srcs[len(sampledKernels):]
	var truthSecs, sampledSecs, warmSecs, errSum float64
	var cover, truths int
	for _, src := range synth {
		name := src.Name()
		sampledSecs += sizing[name]
		for _, cfg := range cfgs {
			label := name + "/" + cfg.Name
			var res *largewindow.Result
			var err error
			truthSecs += lc.tr.call(root(0), "facade", "SimulateContext.truth", label, func() {
				res, err = simCell{src: src, scale: e.sz.scale, cfg: cfg}.run()
			})
			if err != nil {
				return err
			}
			c := cells[label]
			sampledSecs += c.secs
			errSum += math.Abs(c.ipc-res.IPC()) / res.IPC()
			if math.Abs(c.ipc-res.IPC()) <= c.ci95 {
				cover++
			}
			truths++
			// The functional warming pass a sampled cell makes: the whole
			// program through RunSink into this configuration's hierarchy.
			prog, err := src.Build(e.sz.scale)
			if err != nil {
				return err
			}
			sink := warmSink{mem.NewHierarchy(cfg.Mem), bpred.New(cfg.Bpred)}
			warmSecs += lc.tr.call(root(0), "emu", "Machine.RunSink", label, func() {
				_, err = emu.New(prog).RunSink(totals[name], sink)
			})
			if err != nil && !errors.Is(err, emu.ErrNotHalted) {
				return err
			}
		}
	}
	lc.m.set("sample.speedup_vs_full", ratio(truthSecs, sampledSecs), truths)
	lc.m.set("sample.ipc_err_pct", 100*ratio(errSum, float64(truths)), truths)
	lc.m.set("sample.ci_cover_frac", ratio(float64(cover), float64(truths)), truths)
	lc.m.set("sample.warm_share", ratio(warmSecs, sampledSecs), truths)

	// Probes run on gzip, and on the suite's own streams.
	prog, err := srcs[0].Build(e.sz.scale)
	if err != nil {
		return err
	}
	total := totals[srcs[0].Name()]
	stream, err := captureOf(srcs, e.sz.scale, 1<<62, e.sz.probeEvents)
	if err != nil {
		return err
	}
	base := largewindow.BaseConfig()
	return lc.run(
		workloadBuild("workload.build_ms_per_prog", srcs[:len(sampledKernels)], e.sz.scale),
		workloadBuild("workload.synth_build_ms_per_prog", synth, e.sz.scale),
		emuRun(prog, total),
		emuRunSink(prog, total),
		memWarm(stream, base.Mem),
		bpredWarm(stream, base.Bpred),
		coreConstruct(prog),
		coreShortWindows(prog, total),
	)
}

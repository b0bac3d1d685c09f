package largewindow

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"largewindow/internal/campaign"
	"largewindow/internal/harness"
	"largewindow/internal/sample"
)

// TestOneCellEverySurface runs one (config, kernel, skip, budget) cell and
// one sampled plan through every surface that can execute a cell — the
// facade, a campaign session, a fleet worker's raw ExecCell, and the
// sampler itself — and requires the same answer from each: they are all
// views over one executor, and nothing else holds them to each other.
func TestOneCellEverySurface(t *testing.T) {
	const (
		bench     = "gzip"
		skip      = 2_000
		budget    = 3_000
		maxCycles = 5_000_000
	)
	ctx := context.Background()
	src, err := ParseWorkloadRef(bench)
	if err != nil {
		t.Fatal(err)
	}
	plan := SamplingPlan{Intervals: 4, Period: 2_000, Length: 300, Warmup: 200, Seed: 5, Random: true}

	for _, cfg := range []Config{BaseConfig(), WIBConfig()} {
		t.Run(cfg.Name+"/skip+measure", func(t *testing.T) {
			res, err := SimulateContext(ctx, cfg, mustProgram(t, bench, ScaleTest),
				WithSkip(skip), WithMeasure(budget), WithMaxCycles(maxCycles))
			if err != nil {
				t.Fatal(err)
			}
			opt := harness.Options{Scale: ScaleTest, MaxInstr: budget, MaxCycles: maxCycles, SkipInstr: skip}
			cell := campaign.Cell{Config: cfg, Bench: bench, Scale: ScaleTest, MaxInstr: budget, MaxCycles: maxCycles, SkipInstr: skip}
			view, viaRun, viaExec := sessionSurfaces(t, opt, cfg, src, cell)

			if !reflect.DeepEqual(res.Stats, view.Stats) || !reflect.DeepEqual(res.Stats, viaExec.Stats) {
				t.Errorf("stats diverge\n facade  %+v\n session %+v\n exec    %+v", res.Stats, view.Stats, viaExec.Stats)
			}
			if res.IPC() != view.IPC || res.DL1MissRatio != view.DL1Miss || res.L2LocalMissRatio != view.L2Local {
				t.Errorf("facade IPC/dl1/l2 %v/%v/%v, session %v/%v/%v",
					res.IPC(), res.DL1MissRatio, res.L2LocalMissRatio, view.IPC, view.DL1Miss, view.L2Local)
			}
			if res.Stats.Skipped != skip || res.Sampling != nil || res.Intervals != 0 {
				t.Errorf("facade result is not a plain skip window: skipped=%d sampling=%v intervals=%d",
					res.Stats.Skipped, res.Sampling, res.Intervals)
			}
			sameRecordBytes(t, viaRun, viaExec)
		})

		t.Run(cfg.Name+"/sampled", func(t *testing.T) {
			out, err := sample.Run(ctx, cfg, mustProgram(t, bench, ScaleTest), plan, maxCycles, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := SimulateContext(ctx, cfg, mustProgram(t, bench, ScaleTest),
				WithSampling(plan), WithMaxCycles(maxCycles))
			if err != nil {
				t.Fatal(err)
			}
			opt := harness.Options{Scale: ScaleTest, MaxInstr: budget, MaxCycles: maxCycles, Sampling: &plan}
			cell := campaign.Cell{Config: cfg, Bench: bench, Scale: ScaleTest, MaxInstr: budget, MaxCycles: maxCycles, Sampling: &plan}
			view, viaRun, viaExec := sessionSurfaces(t, opt, cfg, src, cell)

			if len(out.IntervalIPCs) == 0 {
				t.Fatal("the plan measured no interval")
			}
			if !reflect.DeepEqual(out.Stats, res.Stats) || !reflect.DeepEqual(out.Stats, view.Stats) || !reflect.DeepEqual(out.Stats, viaExec.Stats) {
				t.Errorf("stats diverge\n sampler %+v\n facade  %+v\n session %+v\n exec    %+v", out.Stats, res.Stats, view.Stats, viaExec.Stats)
			}
			if res.IPC() != out.MeanIPC || view.IPC != out.MeanIPC || viaExec.IPC != out.MeanIPC {
				t.Errorf("IPC: sampler %v, facade %v, session %v, exec %v", out.MeanIPC, res.IPC(), view.IPC, viaExec.IPC)
			}
			if res.DL1MissRatio != out.DL1Miss || res.L2LocalMissRatio != out.L2Local || res.TLBMissRatio != out.TLBMiss ||
				view.DL1Miss != out.DL1Miss || view.L2Local != out.L2Local || view.BrAcc != out.BrAcc {
				t.Errorf("ratios diverge: sampler %v/%v/%v/%v, facade %v/%v/%v, session %v/%v/%v",
					out.DL1Miss, out.L2Local, out.TLBMiss, out.BrAcc,
					res.DL1MissRatio, res.L2LocalMissRatio, res.TLBMissRatio, view.DL1Miss, view.L2Local, view.BrAcc)
			}
			if res.IPCCI95 != out.IPCCI95 || res.IPCStdDev != out.IPCStdDev || res.Intervals != len(out.IntervalIPCs) ||
				view.IPCCI95 != out.IPCCI95 || view.IPCStdDev != out.IPCStdDev || view.Intervals != len(out.IntervalIPCs) {
				t.Errorf("CI fields diverge: sampler ±%v σ%v n=%d, facade ±%v σ%v n=%d, session ±%v σ%v n=%d",
					out.IPCCI95, out.IPCStdDev, len(out.IntervalIPCs),
					res.IPCCI95, res.IPCStdDev, res.Intervals, view.IPCCI95, view.IPCStdDev, view.Intervals)
			}
			if !reflect.DeepEqual(res.IntervalIPCs, out.IntervalIPCs) || !reflect.DeepEqual(viaExec.IntervalIPCs, out.IntervalIPCs) {
				t.Errorf("interval series diverge: sampler %v, facade %v, exec %v", out.IntervalIPCs, res.IntervalIPCs, viaExec.IntervalIPCs)
			}
			if res.Sampling == nil || *res.Sampling != out.Plan {
				t.Errorf("facade echoes plan %v, the sampler executed %v", res.Sampling, out.Plan)
			}
			sameRecordBytes(t, viaRun, viaExec)
		})
	}
}

// sessionSurfaces resolves cell through a session's engine (Session.Run,
// whose record the engine memoizes) and through a second session's raw
// ExecCell, the way a fleet worker executes it.
func sessionSurfaces(t *testing.T, opt harness.Options, cfg Config, src Workload, cell campaign.Cell) (view, viaRun, viaExec *campaign.Record) {
	t.Helper()
	s := harness.NewSession(opt)
	view, err := s.Run(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if viaRun, err = s.Campaign().Run(cell); err != nil {
		t.Fatal(err)
	}
	if snap := s.Campaign().Snapshot(); snap.Executed != 1 {
		t.Fatalf("the hand-built cell is not the session's own: %d cells executed", snap.Executed)
	}
	if viaExec, err = harness.NewSession(harness.Options{}).ExecCell(cell, nil); err != nil {
		t.Fatal(err)
	}
	viaExec.CellID = cell.ID() // whoever owns the store stamps the address: the engine did, as a coordinator would
	return view, viaRun, viaExec
}

func sameRecordBytes(t *testing.T, a, b *campaign.Record) {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Errorf("Record JSON differs between Session.Run and ExecCell\n run  %s\n exec %s", ja, jb)
	}
}

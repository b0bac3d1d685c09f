package model

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"testing"

	"largewindow/internal/bpred"
	"largewindow/internal/core"
	"largewindow/internal/isa"
	"largewindow/internal/mem"
	"largewindow/internal/stats"
	_ "largewindow/internal/trace" // synth: workload scheme
	"largewindow/internal/workload"
)

func testBudget(t *testing.T) uint64 {
	if v := os.Getenv("LARGEWINDOW_MODEL_INSTR"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bad LARGEWINDOW_MODEL_INSTR: %v", err)
		}
		return n
	}
	return 30_000
}

func buildRef(t *testing.T, ref string, sc workload.Scale) *isa.Program {
	t.Helper()
	src, err := workload.ParseRef(ref)
	if err != nil {
		t.Fatalf("ParseRef(%q): %v", ref, err)
	}
	prog, err := src.Build(sc)
	if err != nil {
		t.Fatalf("Build(%q): %v", ref, err)
	}
	return prog
}

func collectRef(t *testing.T, ref string, budget uint64) *Profile {
	t.Helper()
	prog := buildRef(t, ref, workload.ScaleTest)
	p, err := Collect(prog, "test", CollectOptions{
		MaxInstr: budget,
		Mem:      mem.DefaultConfig(),
		Bpred:    bpred.DefaultConfig(),
	})
	if err != nil {
		t.Fatalf("Collect(%q): %v", ref, err)
	}
	return p
}

func TestCollectProfileShape(t *testing.T) {
	p := collectRef(t, "synth:mlp=4,miss=0.2,ws=4m,n=20000", 0)
	if p.N == 0 {
		t.Fatal("empty profile")
	}
	if p.LongLoadMisses == 0 {
		t.Fatal("miss=0.2 ws=4m synth produced no long load misses")
	}
	if p.ClassMix[isa.ClassLoad] == 0 || p.CondBranches == 0 {
		t.Fatalf("missing class events: loads=%d cond=%d", p.ClassMix[isa.ClassLoad], p.CondBranches)
	}
	if p.DataMemMisses < p.LongLoadMisses {
		t.Fatalf("long load misses %d exceed total memory misses %d", p.LongLoadMisses, p.DataMemMisses)
	}
	if len(p.SerialMisses) != len(p.Windows) || len(p.ILP) != len(p.Windows) {
		t.Fatalf("ladder lengths: %d serial, %d ilp, %d windows",
			len(p.SerialMisses), len(p.ILP), len(p.Windows))
	}
	for i := 1; i < len(p.Windows); i++ {
		if p.SerialMisses[i] > p.SerialMisses[i-1] {
			t.Errorf("SerialMisses not non-increasing at W=%d: %v", p.Windows[i], p.SerialMisses)
		}
		if p.ILP[i] < p.ILP[i-1] {
			t.Errorf("ILP not non-decreasing at W=%d: %v", p.Windows[i], p.ILP)
		}
	}
	// A wide independent-miss burst must overlap in large windows: the
	// 4096-entry serialized count should be well below the 16-entry one.
	if last, first := p.SerialMisses[len(p.SerialMisses)-1], p.SerialMisses[0]; last >= first && first > 0 {
		t.Errorf("no MLP extracted: serial@16=%v serial@4096=%v", first, last)
	}
}

// TestPredictMonotoneWindow checks the model's core property: predicted
// cycles never increase when the instruction window grows, across the
// synthetic MLP/miss dial grid.
func TestPredictMonotoneWindow(t *testing.T) {
	for _, mlp := range []int{1, 4, 8} {
		for _, miss := range []string{"0.02", "0.30"} {
			ref := fmt.Sprintf("synth:mlp=%d,miss=%s,ws=4m,n=20000", mlp, miss)
			p := collectRef(t, ref, 0)
			var prevWIB, prevConv float64
			for i, entries := range []int{128, 256, 512, 1024, 2048, 4096} {
				cw := Predict(p, core.WIBConfigSized(entries, 0)).Cycles
				cc := Predict(p, core.ScaledConfig(entries/4, entries)).Cycles
				if i > 0 {
					if cw > prevWIB {
						t.Errorf("%s: WIB cycles increased %v -> %v at %d entries", ref, prevWIB, cw, entries)
					}
					if cc > prevConv {
						t.Errorf("%s: conventional cycles increased %v -> %v at %d entries", ref, prevConv, cc, entries)
					}
				}
				prevWIB, prevConv = cw, cc
			}
		}
	}
}

// TestPredictMonotoneMemLatency checks predicted cycles never decrease
// when the L2-miss (memory) latency grows.
func TestPredictMonotoneMemLatency(t *testing.T) {
	for _, mlp := range []int{1, 8} {
		ref := fmt.Sprintf("synth:mlp=%d,miss=0.15,ws=4m,n=20000", mlp)
		p := collectRef(t, ref, 0)
		for _, mk := range []func() core.Config{
			func() core.Config { return core.DefaultConfig() },
			func() core.Config { return core.WIBConfigSized(2048, 0) },
		} {
			var prev float64
			for i, lat := range []int64{100, 250, 500, 1000} {
				cfg := mk()
				cfg.Mem.MemLatency = lat
				c := Predict(p, cfg).Cycles
				if i > 0 && c < prev {
					t.Errorf("%s %s: cycles decreased %v -> %v at latency %d", ref, cfg.Name, prev, c, lat)
				}
				prev = c
			}
		}
	}
}

func detailedCycles(t *testing.T, cfg core.Config, prog *isa.Program, budget uint64) (int64, uint64) {
	t.Helper()
	p, err := core.New(cfg, prog)
	if err != nil {
		t.Fatalf("core.New(%s): %v", cfg.Name, err)
	}
	st, err := p.Run(budget, 0)
	if err != nil && !errors.Is(err, core.ErrBudget) {
		t.Fatalf("run %s on %s: %v", cfg.Name, prog.Name, err)
	}
	return st.Cycles, st.Committed
}

// TestModelCrossValidation calibrates the model on anchor configs (the
// window extremes of each family) and checks the mean absolute CPI error
// on held-out intermediate configs across the full 18-kernel suite stays
// within the accuracy gate.
func TestModelCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation runs the detailed core on the full suite")
	}
	budget := testBudget(t)
	type famCfgs struct {
		anchors []core.Config
		eval    core.Config
	}
	families := map[string]famCfgs{
		"conv": {
			anchors: []core.Config{core.ScaledConfig(16, 64), core.ScaledConfig(64, 256)},
			eval:    core.DefaultConfig(), // 32-IQ/128
		},
		"wib": {
			anchors: []core.Config{core.WIBConfigSized(256, 0), core.WIBConfigSized(4096, 0)},
			eval:    core.WIBConfigSized(2048, 0),
		},
	}
	var pred, meas []float64
	for _, spec := range workload.All() {
		prog := spec.Build(workload.ScaleTest)
		prof, err := Collect(prog, "test", CollectOptions{
			MaxInstr: budget,
			Mem:      mem.DefaultConfig(),
			Bpred:    bpred.DefaultConfig(),
		})
		if err != nil {
			t.Fatalf("Collect(%s): %v", spec.Name, err)
		}
		for fam, fc := range families {
			cal := NewCalibration()
			for _, a := range fc.anchors {
				cycles, _ := detailedCycles(t, a, prog, budget)
				cal.Observe(spec.Name, a, Predict(prof, a), uint64(cycles))
			}
			cycles, committed := detailedCycles(t, fc.eval, prog, budget)
			if committed == 0 {
				t.Fatalf("%s committed nothing", spec.Name)
			}
			pr := cal.Apply(spec.Name, fc.eval, Predict(prof, fc.eval))
			// Compare CPI over the instructions each side covered (the
			// detailed run and the profile span the same budget).
			predCPI := pr.Cycles / float64(prof.N)
			measCPI := float64(cycles) / float64(committed)
			pred = append(pred, predCPI)
			meas = append(meas, measCPI)
			t.Logf("%-12s %-5s pred %.3f meas %.3f (%+.1f%%)",
				spec.Name, fam, predCPI, measCPI, 100*(predCPI-measCPI)/measCPI)
		}
	}
	err := stats.MeanAbsPctErr(pred, meas)
	t.Logf("mean abs CPI error: %.2f%% over %d cells", err, len(pred))
	if err > 10 {
		t.Fatalf("mean abs CPI error %.2f%% exceeds the 10%% gate", err)
	}
}

// TestExplorePrunesAndAudits drives Explore with a synthetic ExecFunc
// (the model plus deterministic noise) and checks the accounting: pruned
// + simulated = total, the audit slice is non-empty and seed-stable, and
// the Pareto frontier is non-empty and non-dominated.
func TestExplorePrunesAndAudits(t *testing.T) {
	configs := []core.Config{
		core.ScaledConfig(16, 64),
		core.DefaultConfig(),
		core.WIBConfigSized(256, 0),
		core.WIBConfigSized(1024, 0),
		core.WIBConfigSized(2048, 0),
		core.WIBConfigSized(2048, 16),
		core.WIBConfigSized(4096, 0),
	}
	benches := []string{
		"synth:mlp=1,miss=0.1,ws=4m,n=10000",
		"synth:mlp=4,miss=0.1,ws=4m,n=10000",
		"synth:mlp=8,miss=0.3,ws=4m,n=10000",
	}
	var execCalls atomic.Int64
	exec := func(cfg core.Config, bench string) (uint64, float64, error) {
		execCalls.Add(1)
		src, err := workload.ParseRef(bench)
		if err != nil {
			return 0, 0, err
		}
		prog, err := src.Build(workload.ScaleTest)
		if err != nil {
			return 0, 0, err
		}
		prof, err := Collect(prog, "test", CollectOptions{Mem: cfg.Mem, Bpred: cfg.Bpred})
		if err != nil {
			return 0, 0, err
		}
		// A fake "detailed core": the raw model with config-dependent
		// deterministic skew, so calibration has something to learn.
		pr := Predict(prof, cfg)
		skew := 1.1 + 0.05*float64(len(cfg.Name)%3)
		cycles := uint64(pr.Cycles * skew)
		return cycles, float64(prof.N) / float64(cycles), nil
	}
	run := func(seed uint64) *Report {
		sp := &Space{
			Configs: configs, Benches: benches, Scale: workload.ScaleTest,
			Pruning: Pruning{TopK: 2, AuditFrac: 0.25, Seed: seed}, Exec: serialBatch(exec),
		}
		rep, err := sp.Explore()
		if err != nil {
			t.Fatalf("Explore: %v", err)
		}
		return rep
	}
	rep := run(7)
	if rep.TotalCells != len(configs)*len(benches) {
		t.Fatalf("total cells %d, want %d", rep.TotalCells, len(configs)*len(benches))
	}
	if rep.Simulated+rep.Pruned != rep.TotalCells {
		t.Fatalf("simulated %d + pruned %d != total %d", rep.Simulated, rep.Pruned, rep.TotalCells)
	}
	if rep.Pruned == 0 {
		t.Fatal("nothing pruned: the explorer is not saving any work")
	}
	if rep.Audited == 0 || rep.AuditErrPct <= 0 {
		t.Fatalf("audit slice missing: audited=%d err=%.2f", rep.Audited, rep.AuditErrPct)
	}
	if n := execCalls.Load(); n != int64(rep.Simulated) {
		t.Fatalf("exec called %d times for %d simulated cells", n, rep.Simulated)
	}
	if len(rep.Frontier) == 0 {
		t.Fatal("empty Pareto frontier")
	}
	for _, fi := range rep.Frontier {
		if !rep.Configs[fi].Frontier {
			t.Fatalf("frontier index %d not flagged", fi)
		}
	}
	// Seed determinism: the same seed picks the same audit cells.
	auditSet := func(r *Report) string {
		var s string
		for _, pt := range r.Points {
			if pt.Audit {
				s += pt.Config + "|" + pt.Bench + ";"
			}
		}
		return s
	}
	if a, b := auditSet(rep), auditSet(run(7)); a != b {
		t.Fatalf("audit slice not deterministic:\n%s\nvs\n%s", a, b)
	}
	if rep.Pruned > rep.Audited {
		a := auditSet(rep)
		varies := false
		for seed := uint64(8); seed < 16 && !varies; seed++ {
			varies = auditSet(run(seed)) != a
		}
		if !varies {
			t.Fatalf("audit slice ignores the seed: %s", a)
		}
	}
}

func TestEffectiveWindow(t *testing.T) {
	if w := EffectiveWindow(core.DefaultConfig()); w != 64 {
		t.Fatalf("conventional 32-IQ/128: Weff %v, want 64 (2x32 issue queues)", w)
	}
	if w := EffectiveWindow(core.WIBConfigSized(2048, 0)); w != 2048 {
		t.Fatalf("WIB/2048: Weff %v, want 2048", w)
	}
	if f := Family(core.DefaultConfig()); f != "conv" {
		t.Fatalf("Family conv: %q", f)
	}
	if f := Family(core.WIBDefault()); f != "wib" {
		t.Fatalf("Family wib: %q", f)
	}
}

// TestExploreProfilesPerPredictor: Collect runs the program against the
// config's predictor as well as its caches, so two configs that differ
// only in predictor geometry must not share a profile (they used to: the
// key was the cache family alone, and the second config was predicted
// from the first one's mispredict count).
func TestExploreProfilesPerPredictor(t *testing.T) {
	big, small := core.DefaultConfig(), core.DefaultConfig()
	small.Name = "tiny-bpred"
	small.Bpred.BimodalEntries, small.Bpred.TwoLevelEntries, small.Bpred.ChooserEntries = 2, 2, 2
	sp := &Space{Configs: []core.Config{big, small}, Benches: []string{"gzip"}, Scale: workload.ScaleTest}
	profiles, err := sp.collectProfiles(t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	pb, ps := profiles[0], profiles[1]
	if pb == ps {
		t.Fatal("two predictor geometries share one profile")
	}
	if pb.Mispredicts == 0 || ps.Mispredicts <= pb.Mispredicts {
		t.Errorf("mispredicts: %d with the default predictor, %d with 2-entry tables; want more with the small one",
			pb.Mispredicts, ps.Mispredicts)
	}
	if a, b := Predict(pb, big).Branch, Predict(ps, small).Branch; a >= b {
		t.Errorf("predicted branch cycles %v (default) >= %v (tiny predictor)", a, b)
	}
}

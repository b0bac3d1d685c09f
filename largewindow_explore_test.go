package largewindow

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func exploreTestGrid() []Config {
	// More than two configs per window family, so the min/max calibration
	// anchors leave the middle of each ladder for the model to prune.
	return []Config{
		BaseConfig(),
		ScaledConfig(128, 512),
		ScaledConfig(2048, 2048),
		WIBConfigSized(256, 64),
		WIBConfigSized(512, 64),
		WIBConfigSized(1024, 64),
		WIBConfigSized(2048, 64),
	}
}

func TestExploreContext(t *testing.T) {
	cfgs := exploreTestGrid()
	benches := []string{"mst", "em3d"}
	rep, err := ExploreContext(context.Background(), cfgs, benches,
		WithMaxInstr(20_000),
		WithModelPrune(1, 0.5),
		WithExploreSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCells != len(cfgs)*len(benches) {
		t.Errorf("TotalCells = %d, want %d", rep.TotalCells, len(cfgs)*len(benches))
	}
	if rep.Simulated+rep.Pruned != rep.TotalCells {
		t.Errorf("simulated %d + pruned %d != total %d",
			rep.Simulated, rep.Pruned, rep.TotalCells)
	}
	if rep.Pruned == 0 {
		t.Error("model pruned no cells")
	}
	if rep.Audited == 0 {
		t.Error("audit slice is empty despite AuditFrac=0.5")
	}
	if len(rep.Configs) != len(cfgs) {
		t.Fatalf("len(Configs) = %d, want %d", len(rep.Configs), len(cfgs))
	}
	for _, cs := range rep.Configs {
		if cs.SuiteIPC <= 0 {
			t.Errorf("config %s has non-positive suite IPC %g", cs.Config, cs.SuiteIPC)
		}
	}
	if len(rep.Frontier) == 0 {
		t.Error("empty Pareto frontier")
	}
	// Every simulated point must carry measured results.
	for _, p := range rep.Points {
		if p.Simulated && p.SimCycles == 0 {
			t.Errorf("simulated point %s/%s has no measured cycles", p.Config, p.Bench)
		}
		if !p.Simulated && (p.SimCycles != 0 || p.Audit) {
			t.Errorf("pruned point %s/%s carries simulation state", p.Config, p.Bench)
		}
	}
}

func TestExploreContextDeterministicAudit(t *testing.T) {
	cfgs := exploreTestGrid()
	benches := []string{"mst", "em3d"}
	audits := func(seed uint64) map[string]bool {
		rep, err := ExploreContext(context.Background(), cfgs, benches,
			WithMaxInstr(15_000),
			WithModelPrune(1, 0.5),
			WithExploreSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, p := range rep.Points {
			if p.Audit {
				set[p.Config+"/"+p.Bench] = true
			}
		}
		return set
	}
	a, b := audits(3), audits(3)
	if len(a) == 0 {
		t.Fatal("no audit cells selected")
	}
	for k := range a {
		if !b[k] {
			t.Errorf("audit slice not deterministic: %s selected only once", k)
		}
	}
	if len(a) != len(b) {
		t.Errorf("audit slice sizes differ: %d vs %d", len(a), len(b))
	}
}

func TestExploreContextAuditDisabled(t *testing.T) {
	rep, err := ExploreContext(context.Background(),
		exploreTestGrid(), []string{"mst"},
		WithMaxInstr(15_000),
		WithModelPrune(1, -1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audited != 0 {
		t.Errorf("Audited = %d with negative AuditFrac, want 0", rep.Audited)
	}
}

func TestExploreContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExploreContext(ctx, exploreTestGrid(), []string{"mst"},
		WithMaxInstr(15_000), WithModelPrune(1, -1))
	if err == nil {
		t.Fatal("cancelled exploration returned no error")
	}
}

func TestExploreContextBadWorkload(t *testing.T) {
	_, err := ExploreContext(context.Background(),
		exploreTestGrid(), []string{"no-such-kernel"},
		WithMaxInstr(10_000))
	if err == nil {
		t.Fatal("unknown workload did not error")
	}
}

// TestExploreContextCancelStopsCellsInFlight: cancelling ctx while the
// first batch runs stops its cells mid-simulation — each would run for
// seconds — and ExploreContext returns context.Canceled with none of its
// goroutines left behind.
func TestExploreContextCancelStopsCellsInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := ExploreContext(ctx, exploreTestGrid(), []string{"mst"},
			WithMaxInstr(5_000_000), WithWorkloadScale(ScaleFull), WithModelPrune(1, -1))
		done <- err
	}()
	// The batch has started once a worker goroutine joins the explorer's.
	for start := time.Now(); runtime.NumGoroutine() < before+2; time.Sleep(time.Millisecond) {
		if time.Since(start) > 30*time.Second {
			t.Fatal("no simulated cell started within 30 s")
		}
	}
	time.Sleep(50 * time.Millisecond)
	cancel()
	cancelled := time.Now()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ExploreContext still running 30 s after its context was cancelled")
	}
	t.Logf("returned %v after the cancel", time.Since(cancelled))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(cancelled); d > 3*time.Second {
		t.Errorf("ExploreContext took %v to return after the cancel", d)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines running after ExploreContext returned, %d before it started", n, before)
	}
}

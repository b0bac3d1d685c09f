package harness

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/golden"
	"largewindow/internal/sample"
	"largewindow/internal/workload"
)

func testSession(benches ...string) *Session {
	return NewSession(Options{
		MaxInstr:   5_000,
		Scale:      workload.ScaleTest,
		Benchmarks: benches,
	})
}

func TestRunProducesResult(t *testing.T) {
	s := testSession("treeadd")
	spec, _ := workload.Get("treeadd")
	src := spec.Source()
	r, err := s.Run(core.DefaultConfig(), src)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 {
		t.Errorf("IPC = %v", r.IPC)
	}
	if r.Bench != "treeadd" || r.Config != "32-IQ/128" {
		t.Errorf("labels = %q %q", r.Bench, r.Config)
	}
}

func TestRunMemoizes(t *testing.T) {
	s := testSession("treeadd")
	spec, _ := workload.Get("treeadd")
	src := spec.Source()
	r1, err := s.Run(core.DefaultConfig(), src)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(core.DefaultConfig(), src)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical runs not memoized")
	}
}

func TestRunAllFilters(t *testing.T) {
	s := testSession("art", "treeadd")
	res, err := s.RunAll(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2", len(res))
	}
	if _, ok := res["art"]; !ok {
		t.Error("art missing")
	}
}

// TestRunAllRunsInTableOrder: RunAll primes its cells in table order, so
// a one-worker session executes them in that order, every time.
func TestRunAllRunsInTableOrder(t *testing.T) {
	table := []string{"mst", "treeadd", "art", "gzip"}
	var mu sync.Mutex
	var ran []string
	s := NewSession(Options{
		MaxInstr:   2_000,
		Scale:      workload.ScaleTest,
		Benchmarks: table,
		Parallel:   1,
		PreRun: func(p *core.Processor, cfg core.Config, src workload.Source) {
			mu.Lock()
			defer mu.Unlock()
			ran = append(ran, src.Name())
		},
	})
	if _, err := s.RunAll(core.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(ran, table) {
		t.Errorf("cells ran in order %v, want table order %v", ran, table)
	}
}

// TestSuiteAverages builds a sweep by hand — one row measured against
// the baseline, one against its own reference — and checks the suite
// averages the suiteTable layout renders from it.
func TestSuiteAverages(t *testing.T) {
	var srcs []workload.Source
	for _, name := range []string{"gzip", "gcc", "art"} { // INT, INT, FP
		spec, _ := workload.Get(name)
		srcs = append(srcs, spec.Source())
	}
	ipcs := func(xs ...float64) []*campaign.Record {
		out := make([]*campaign.Record, len(xs))
		for i, x := range xs {
			out[i] = &campaign.Record{IPC: x}
		}
		return out
	}
	base := ipcs(1, 1, 2)
	m := &sweep{
		rows: []Row{{Label: "vs-base"}, {Label: "vs-own"}},
		srcs: srcs,
		res:  [][]*campaign.Record{ipcs(2, 3, 4), ipcs(2, 3, 4)},
		ref:  [][]*campaign.Record{base, ipcs(2, 2, 1)},
	}
	if sp := m.speedups(0, workload.SuiteInt); len(sp) != 2 || sp[0] != 2 || sp[1] != 3 {
		t.Errorf("int speedups = %v, want [2 3]", sp)
	}
	tables := suiteTable("t", 0, 2, "n")(m)
	if len(tables) != 1 || len(tables[0].Rows) != 2 {
		t.Fatalf("suiteTable rendered %+v", tables)
	}
	want := [][]string{
		{"vs-base", "2.500 (+150.0%)", "2.000 (+100.0%)", "0.000 (-100.0%)"},
		{"vs-own", "1.250 (+25.0%)", "4.000 (+300.0%)", "0.000 (-100.0%)"},
	}
	if !reflect.DeepEqual(tables[0].Rows, want) {
		t.Errorf("rows = %v\nwant   %v", tables[0].Rows, want)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, ex := range Experiments() {
		if ex.ID == "" || ex.Title == "" || len(ex.Rows) == 0 || ex.render == nil {
			t.Errorf("malformed experiment %+v", ex)
		}
		if ids[ex.ID] {
			t.Errorf("duplicate id %s", ex.ID)
		}
		ids[ex.ID] = true
	}
	for _, want := range []string{"fig1", "table2", "fig4", "fig5", "fig6", "policy", "fig7", "sens"} {
		if !ids[want] {
			t.Errorf("experiment %s missing", want)
		}
	}
}

// TestExperimentTablesGolden pins every experiment's rendered tables byte
// for byte: all ten on four kernels (one or two per suite), then Table 2
// and Figure 5 under a sampling plan (Table 2's ±CI branch). The file was
// recorded from the hand-written generators that preceded the declarative
// Experiment; after a deliberate model change delete it, run once to
// re-record, re-run to verify.
func TestExperimentTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var sb strings.Builder
	full := NewSession(Options{
		MaxInstr:   20_000,
		Scale:      workload.ScaleTest,
		Benchmarks: []string{"gzip", "art", "treeadd", "mgrid"},
	})
	if err := RunExperiments(full, nil, &sb); err != nil {
		t.Fatal(err)
	}
	plan, err := sample.Parse("n=4,len=500,warm=200,seed=3,random")
	if err != nil {
		t.Fatal(err)
	}
	sampled := NewSession(Options{
		Scale:      workload.ScaleTest,
		Benchmarks: []string{"gzip", "treeadd"},
		Sampling:   &plan,
	})
	if err := RunExperiments(sampled, []string{"table2", "fig5"}, &sb); err != nil {
		t.Fatal(err)
	}
	golden.CheckText(t, "testdata/experiments.golden", sb.String())
}

// TestPrimeIsWhatRendersAsk: for every experiment (and for all of them
// together) Prime submits exactly the cells rendering reads. A session
// primed with the selection executes no cell beyond the count Prime
// returned while rendering, and a fresh session that renders without
// priming executes as many distinct cells — so the two sets are equal.
func TestPrimeIsWhatRendersAsk(t *testing.T) {
	selections := [][]string{{"all"}}
	for _, ex := range Experiments() {
		selections = append(selections, []string{ex.ID})
	}
	session := func() *Session {
		return NewSession(Options{MaxInstr: 2_000, Scale: workload.ScaleTest, Benchmarks: []string{"treeadd", "gzip"}})
	}
	executed := func(s *Session, ids []string) uint64 {
		if err := RunExperiments(s, ids, io.Discard); err != nil {
			t.Fatal(err)
		}
		s.Campaign().Wait()
		return s.Campaign().Snapshot().Executed
	}
	for _, ids := range selections {
		primed := session()
		n, err := primed.Prime(ids)
		if err != nil {
			t.Fatal(err)
		}
		if got := executed(primed, ids); got != uint64(n) {
			t.Errorf("%v: rendering a primed session left %d cells executed, Prime submitted %d", ids, got, n)
		}
		if got := executed(session(), ids); got != uint64(n) {
			t.Errorf("%v: rendering an unprimed session executed %d cells, Prime submits %d", ids, got, n)
		}
	}
}

// TestPrimeRunsCellsInTableOrder: Prime submits the selected experiments'
// cells in the order their tables read them — experiments in paper order
// (Table 2 before Figure 4, whatever order the ids came in), each one's
// Configs() × the workloads, a cell already submitted dropped — so a
// one-worker session executes them in that order.
func TestPrimeRunsCellsInTableOrder(t *testing.T) {
	benches := []string{"treeadd", "gzip"}
	var mu sync.Mutex
	var ran []string
	s := NewSession(Options{
		MaxInstr:   2_000,
		Scale:      workload.ScaleTest,
		Benchmarks: benches,
		Parallel:   1,
		PreRun: func(p *core.Processor, cfg core.Config, src workload.Source) {
			mu.Lock()
			defer mu.Unlock()
			ran = append(ran, cfg.Name+"/"+src.Name())
		},
	})
	n, err := s.Prime([]string{"fig4", "table2"})
	if err != nil {
		t.Fatal(err)
	}
	s.Campaign().Wait()
	var want []string
	// Table 2 reads the baseline and WIB; Figure 4 reads those again, then
	// its two scaled conventional machines.
	for _, cfg := range []string{"32-IQ/128", "WIB/2048", "32-IQ/2048", "2048-IQ/2048"} {
		for _, b := range benches {
			want = append(want, cfg+"/"+b)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if n != len(want) || !reflect.DeepEqual(ran, want) {
		t.Errorf("Prime submitted %d cells, which ran in order\n  %v\nwant %d in table order\n  %v", n, ran, len(want), want)
	}
}

// TestRunExperimentsUnknownIDRejected: an id that names no experiment is
// an error listing the valid ids — from Prime and from the run — not an
// empty selection that renders nothing and exits 0.
func TestRunExperimentsUnknownIDRejected(t *testing.T) {
	s := testSession("treeadd")
	var sb strings.Builder
	err := RunExperiments(s, []string{"fig4", "fig44"}, &sb)
	if err == nil || !strings.Contains(err.Error(), `"fig44"`) || !strings.Contains(err.Error(), "fig4, fig5") {
		t.Errorf("RunExperiments error = %v; want one naming fig44 and the valid ids", err)
	}
	if sb.Len() != 0 {
		t.Errorf("a rejected selection still rendered:\n%s", sb.String())
	}
	if n, err := s.Prime([]string{"fig4", "fig44"}); err == nil || n != 0 {
		t.Errorf("Prime accepted an unknown id: %d cells, err %v", n, err)
	}
	if snap := s.Campaign().Snapshot(); snap.Total != 0 || snap.Executed != 0 {
		t.Errorf("a rejected selection submitted %d cells and executed %d", snap.Total, snap.Executed)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxInstr == 0 || o.MaxCycles == 0 || o.Parallel <= 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
}

// TestRunAllSurvivesFaultyCell is the graceful-degradation acceptance
// test: one cell of a sweep is sabotaged (a seeded fault injected via
// the PreRun hook), and the sweep must still complete the remaining
// cells, name the failed one in the joined error and the failure
// summary, and not silently re-run the failure when asked again.
func TestRunAllSurvivesFaultyCell(t *testing.T) {
	var sabotaged atomic.Int32
	s := NewSession(Options{
		MaxInstr:   5_000,
		Scale:      workload.ScaleTest,
		Benchmarks: []string{"mst", "treeadd", "art"},
		PreRun: func(p *core.Processor, cfg core.Config, src workload.Source) {
			if src.Name() != "mst" {
				return
			}
			sabotaged.Add(1)
			// The corruption needs live state: step the machine until the
			// injector finds a victim, then let the harness's own run
			// continue the same machine into the checker.
			rng := rand.New(rand.NewSource(42))
			for c := int64(200); c <= 20_000; c += 200 {
				if _, err := p.Run(0, c); !errors.Is(err, core.ErrBudget) {
					return
				}
				if p.Inject(core.FaultIQCountSkew, rng) {
					return
				}
			}
		},
	})
	cfg := core.DefaultConfig()
	cfg.Name = "debug-base"
	cfg.Debug = true

	res, err := s.RunAll(cfg)
	if err == nil {
		t.Fatal("sweep with a sabotaged cell reported no error")
	}
	if !strings.Contains(err.Error(), "mst on debug-base") {
		t.Errorf("joined error %q does not name the failed cell", err)
	}
	var se *core.SimError
	if !errors.As(err, &se) || se.Kind != core.KindIQCount {
		t.Errorf("err = %v; want an iq-count SimError", err)
	}
	if se != nil && se.Bench != "mst" {
		t.Errorf("SimError bench = %q, want mst", se.Bench)
	}
	if len(res) != 2 {
		t.Fatalf("surviving cells = %d, want 2 (got %v)", len(res), res)
	}
	for _, name := range []string{"treeadd", "art"} {
		if _, ok := res[name]; !ok {
			t.Errorf("healthy cell %s missing from sweep results", name)
		}
	}
	fails := s.Failures()
	if len(fails) != 1 || fails[0].Cell.Bench != "mst" || fails[0].Cell.Config.Name != "debug-base" {
		t.Fatalf("failures = %+v, want exactly mst/debug-base", fails)
	}
	sum := s.FailureSummary()
	for _, want := range []string{"mst", "debug-base", "iq-count"} {
		if !strings.Contains(sum, want) {
			t.Errorf("failure summary missing %q:\n%s", want, sum)
		}
	}
	// The failure is memoized: asking for the same cell again returns the
	// recorded error without re-running it.
	before := sabotaged.Load()
	spec, _ := workload.Get("mst")
	src := spec.Source()
	if _, err2 := s.Run(cfg, src); err2 == nil {
		t.Error("memoized failure returned nil error")
	}
	if sabotaged.Load() != before {
		t.Error("failed cell was re-run instead of memoized")
	}
	if len(s.Failures()) != 1 {
		t.Errorf("failure recorded twice: %d entries", len(s.Failures()))
	}
}

// TestFailureRecordedOnce: concurrent Runs of one sabotaged cell share
// one execution, so the engine records one failure and logs one FAIL
// line, and every caller gets the same error.
func TestFailureRecordedOnce(t *testing.T) {
	var log bytes.Buffer
	s := NewSession(Options{
		MaxInstr:   2_000,
		Scale:      workload.ScaleTest,
		Benchmarks: []string{"treeadd"},
		Log:        &log,
		PreRun: func(*core.Processor, core.Config, workload.Source) {
			time.Sleep(10 * time.Millisecond) // let every caller arrive first
			panic("sabotaged cell")
		},
	})
	spec, _ := workload.Get("treeadd")
	src := spec.Source()
	const callers = 8
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Run(core.DefaultConfig(), src)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "treeadd on 32-IQ/128: ") || err.Error() != errs[0].Error() {
			t.Errorf("caller %d: err = %v; want the shared failure %v", i, err, errs[0])
		}
	}
	if fails := s.Failures(); len(fails) != 1 || fails[0].Cell.Bench != "treeadd" {
		t.Errorf("failures = %+v, want the one treeadd cell", fails)
	}
	if n := strings.Count(log.String(), "FAIL "); n != 1 {
		t.Errorf("%d FAIL lines, want 1:\n%s", n, log.String())
	}
}

// TestRunDeadlineRetriesTransient: a wall-clock deadline failure is
// transient — the harness retries the cell once before recording it.
func TestRunDeadlineRetriesTransient(t *testing.T) {
	var log bytes.Buffer
	s := NewSession(Options{
		MaxInstr:    5_000,
		Scale:       workload.ScaleTest,
		RunDeadline: time.Nanosecond,
		Log:         &log,
	})
	spec, _ := workload.Get("treeadd")
	src := spec.Source()
	_, err := s.Run(core.DefaultConfig(), src)
	if err == nil {
		t.Fatal("1ns deadline did not fail the run")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want a deadline failure", err)
	}
	if !strings.Contains(log.String(), "RETRY") {
		t.Errorf("transient failure was not retried:\n%s", log.String())
	}
}

// TestRunAllParallelRace hammers one shared session with concurrent
// RunAll sweeps over several configs at once. It exists for the race
// detector (scripts/check.sh runs it under -race as the parallel-sweep
// smoke gate) and additionally checks that the memo cache hands every
// sweep of the same config the exact same Result pointers.
func TestRunAllParallelRace(t *testing.T) {
	s := testSession("mst", "treeadd", "art")
	configs := []core.Config{
		core.DefaultConfig(),
		core.ScaledConfig(64, 512),
		core.WIBConfigSized(512, 8),
	}
	const sweepsPerConfig = 3
	results := make([]map[string]*campaign.Record, len(configs)*sweepsPerConfig)
	var wg sync.WaitGroup
	for i := range results {
		i, cfg := i, configs[i%len(configs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.RunAll(cfg)
			if err != nil {
				t.Errorf("RunAll(%s): %v", cfg.Name, err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			continue // already reported
		}
		if len(res) != 3 {
			t.Errorf("sweep %d: %d cells, want 3", i, len(res))
		}
		first := results[i%len(configs)]
		for name, r := range res {
			if first != nil && first[name] != r {
				t.Errorf("sweep %d: cell %s not memoized across concurrent sweeps", i, name)
			}
		}
	}
}

package sample

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"largewindow/internal/core"
	"largewindow/internal/emu"
	"largewindow/internal/stats"
	"largewindow/internal/workload"
)

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Plan
		ok   bool
	}{
		{"valid", Plan{Intervals: 4, Period: 1000, Length: 100}, true},
		{"valid with warmup", Plan{Intervals: 4, Period: 1000, Length: 100, Warmup: 900}, true},
		{"zero intervals", Plan{Period: 1000, Length: 100}, false},
		{"negative intervals", Plan{Intervals: -1, Period: 1000, Length: 100}, false},
		{"zero length", Plan{Intervals: 4, Period: 1000}, false},
		{"window exceeds period", Plan{Intervals: 4, Period: 1000, Length: 600, Warmup: 500}, false},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestPlanParseRoundTrip(t *testing.T) {
	plans := []Plan{
		{Intervals: 10, Period: 30000, Length: 1000},
		{Intervals: 10, Period: 30000, Length: 1000, Warmup: 500},
		{Intervals: 3, Period: 5000, Length: 200, Warmup: 100, Seed: 7, Random: true},
	}
	for _, p := range plans {
		got, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", p.String(), err)
		}
		if got != p {
			t.Errorf("round-trip %q: got %+v, want %+v", p.String(), got, p)
		}
	}
}

func TestPlanParseErrors(t *testing.T) {
	bad := []string{
		"",                                    // missing everything
		"n=10,period=1000",                    // missing len
		"n=10,period=1000,len=100,n=5",        // duplicate field
		"n=10,period=1000,len=100,bogus=1",    // unknown field
		"n=10,period=1000,len=100,random=yes", // flag with value
		"n=10,period=1000,len=abc",            // non-numeric
		"n=10,period=100,len=90,warm=20",      // window exceeds period
		"n=10,period=1000,len=100,warm",       // key without value
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error, got nil", spec)
		}
	}
}

func TestPlanOffset(t *testing.T) {
	// Systematic: window sits at the end of each period.
	p := Plan{Intervals: 3, Period: 1000, Length: 100, Warmup: 50}
	for k := 0; k < 3; k++ {
		want := uint64(k)*1000 + 850
		if got := p.Offset(k); got != want {
			t.Errorf("systematic Offset(%d) = %d, want %d", k, got, want)
		}
	}

	// Random: offsets stay within the period and are seed-deterministic.
	r := Plan{Intervals: 50, Period: 1000, Length: 100, Warmup: 50, Seed: 42, Random: true}
	distinct := map[uint64]bool{}
	for k := 0; k < r.Intervals; k++ {
		off := r.Offset(k)
		base := uint64(k) * r.Period
		if off < base || off+r.Detailed() > base+r.Period {
			t.Fatalf("random Offset(%d) = %d escapes period [%d, %d)", k, off, base, base+r.Period)
		}
		if off != r.Offset(k) {
			t.Fatalf("random Offset(%d) not deterministic", k)
		}
		distinct[off-base] = true
	}
	if len(distinct) < 10 {
		t.Errorf("random offsets look degenerate: only %d distinct in-period positions", len(distinct))
	}
	// A different seed must move the windows.
	r2 := r
	r2.Seed = 43
	same := 0
	for k := 0; k < r.Intervals; k++ {
		if r.Offset(k) == r2.Offset(k) {
			same++
		}
	}
	if same == r.Intervals {
		t.Error("changing the seed left every offset unchanged")
	}
}

// haltCount runs the functional emulator to completion.
func haltCount(t *testing.T, spec workload.Spec) uint64 {
	t.Helper()
	m := emu.New(spec.Build(workload.ScaleTest))
	n, err := m.Run(1 << 30)
	if err != nil {
		t.Fatalf("%s: functional run: %v", spec.Name, err)
	}
	return n
}

// TestRunDeterministic: the same plan and config must produce identical
// outcomes on repeated runs — the sampled path inherits the simulator's
// bit-level determinism.
func TestRunDeterministic(t *testing.T) {
	spec := workload.All()[0]
	total := haltCount(t, spec)
	plan := Plan{Intervals: 4, Period: total / 5, Length: 500, Warmup: 200, Seed: 9, Random: true}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan for %s (total %d): %v", spec.Name, total, err)
	}

	run := func() *Outcome {
		out, err := Run(context.Background(), core.DefaultConfig(), spec.Build(workload.ScaleTest), plan, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sampled runs diverge:\n a=%+v\n b=%+v", a, b)
	}
	if len(a.IntervalIPCs) != plan.Intervals {
		t.Errorf("completed %d intervals, want %d", len(a.IntervalIPCs), plan.Intervals)
	}
	if a.MeanIPC <= 0 {
		t.Errorf("MeanIPC = %v, want > 0", a.MeanIPC)
	}
	// Budget checks run once per cycle and several instructions commit per
	// cycle, so each window may run a few instructions past Length.
	want := uint64(plan.Intervals) * plan.Length
	if a.Stats.Committed < want-uint64(plan.Intervals)*8 || a.Stats.Committed > want+uint64(plan.Intervals)*8 {
		t.Errorf("measured %d instructions, want ≈%d", a.Stats.Committed, want)
	}
}

// TestRunWindowsMatchFullDetail: each sampled window's IPC must equal the
// IPC of the same window measured inside one uninterrupted full-detail
// run. This is the handoff correctness property — functional warming plus
// detailed warmup must converge the restored core onto the state the
// continuous run would have at the window, so sampling introduces only
// which-windows selection bias, never per-window measurement bias.
func TestRunWindowsMatchFullDetail(t *testing.T) {
	specs := workload.All()
	for _, name := range []string{"bzip2", "mgrid", "mst"} {
		var spec workload.Spec
		for _, s := range specs {
			if s.Name == name {
				spec = s
			}
		}
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			cfg := core.DefaultConfig()
			total := haltCount(t, spec)
			period := total / 6
			plan := Plan{Intervals: 5, Period: period, Length: period / 8, Warmup: period / 8}
			if err := plan.Validate(); err != nil {
				t.Skipf("kernel too small for plan: %v", err)
			}
			out, err := Run(context.Background(), cfg, spec.Build(workload.ScaleTest), plan, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.IntervalIPCs) != plan.Intervals {
				t.Fatalf("completed %d intervals, want %d", len(out.IntervalIPCs), plan.Intervals)
			}

			// Ground truth: one continuous detailed run, stats deltas at the
			// same window boundaries.
			ctx := context.Background()
			p, err := core.New(cfg, spec.Build(workload.ScaleTest))
			if err != nil {
				t.Fatal(err)
			}
			var trueIPCs []float64
			for k := 0; k < plan.Intervals; k++ {
				start := plan.Offset(k) + plan.Warmup
				if _, err := p.RunContext(ctx, start, 0); err != nil && !errors.Is(err, core.ErrBudget) {
					t.Fatal(err)
				}
				pre := *p.Statistics()
				if _, err := p.RunContext(ctx, start+plan.Length, 0); err != nil && !errors.Is(err, core.ErrBudget) {
					t.Fatal(err)
				}
				trueIPCs = append(trueIPCs, p.Statistics().Delta(pre).IPC)
			}
			// Per-window: near-exact, with headroom for residual predictor
			// divergence — the continuous run trains the predictor through
			// the core (wrong-path lookups and all) while the sampled run's
			// skipped regions train architecturally, and at this toy scale a
			// window is only a few hundred instructions, so a couple of
			// flipped predictions already move a window by a few percent.
			// The mean across windows must stay tight.
			var sumErr float64
			for k := range trueIPCs {
				relErr := math.Abs(out.IntervalIPCs[k]-trueIPCs[k]) / trueIPCs[k]
				sumErr += relErr
				t.Logf("interval %d: sampled IPC %.4f, true IPC %.4f (err %.2f%%)",
					k, out.IntervalIPCs[k], trueIPCs[k], 100*relErr)
				if relErr > 0.06 {
					t.Errorf("interval %d: sampled IPC %.4f diverges from full-detail %.4f by %.2f%%",
						k, out.IntervalIPCs[k], trueIPCs[k], 100*relErr)
				}
			}
			if mean := sumErr / float64(len(trueIPCs)); mean > 0.02 {
				t.Errorf("mean per-window error %.2f%% exceeds 2%%", 100*mean)
			}
			// The aggregate point estimate is the inverse of the mean
			// window CPI (the SMARTS estimator — unbiased for the
			// program's cycles-per-instruction, where a mean of window
			// IPCs would overweight fast windows).
			var cpis []float64
			for _, ipc := range out.IntervalIPCs {
				cpis = append(cpis, 1/ipc)
			}
			if want := 1 / stats.ArithMean(cpis); math.Abs(out.MeanIPC-want) > 1e-9 {
				t.Errorf("MeanIPC %v != inverse mean window CPI %v", out.MeanIPC, want)
			}
		})
	}
}

// TestRunHaltsEarly: a plan whose coverage overruns the program ends with
// Halted set and fewer completed intervals, not an error.
func TestRunHaltsEarly(t *testing.T) {
	spec := workload.All()[0]
	total := haltCount(t, spec)
	plan := Plan{Intervals: 100, Period: total / 4, Length: 300, Warmup: 100}
	out, err := Run(context.Background(), core.DefaultConfig(), spec.Build(workload.ScaleTest), plan, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Halted {
		t.Error("plan overruns the program but Halted is false")
	}
	if len(out.IntervalIPCs) >= plan.Intervals {
		t.Errorf("completed %d intervals, want fewer than %d", len(out.IntervalIPCs), plan.Intervals)
	}
}

// TestRunProgress: the progress callback fires once per measured interval
// with counts 1..n strictly increasing, and always on Run's goroutine
// (the engine counters and worker heartbeats it feeds are not locked for
// window goroutines), however many windows run at once.
func TestRunProgress(t *testing.T) {
	spec := workload.All()[0]
	total := haltCount(t, spec)
	plan := Plan{Intervals: 6, Period: total / 7, Length: 300, Warmup: 100}
	caller := goid()
	for _, procs := range []int{1, 2, 4} {
		var calls []int
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			_, err := Run(context.Background(), core.DefaultConfig(), spec.Build(workload.ScaleTest), plan, 0,
				func(done, planned int) {
					if planned != plan.Intervals {
						t.Errorf("progress planned = %d, want %d", planned, plan.Intervals)
					}
					if id := goid(); id != caller {
						t.Errorf("procs %d: progress on goroutine %s, Run's is %s", procs, id, caller)
					}
					calls = append(calls, done)
				})
			if err != nil {
				t.Fatal(err)
			}
		}()
		if len(calls) != plan.Intervals {
			t.Fatalf("procs %d: progress fired %d times, want %d", procs, len(calls), plan.Intervals)
		}
		for i, d := range calls {
			if d != i+1 {
				t.Fatalf("procs %d: progress calls = %v, want 1..%d", procs, calls, plan.Intervals)
			}
		}
	}
}

// TestRunInvalidPlan: Run rejects unexecutable plans up front.
func TestRunInvalidPlan(t *testing.T) {
	spec := workload.All()[0]
	_, err := Run(context.Background(), core.DefaultConfig(), spec.Build(workload.ScaleTest), Plan{}, 0, nil)
	if err == nil {
		t.Fatal("Run with zero plan: want error, got nil")
	}
}

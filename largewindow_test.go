package largewindow

import (
	"context"
	"testing"
	"time"

	"largewindow/internal/isa"
)

func tinyProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("tiny")
	b.Li(isa.T0, 0)
	b.Loop(isa.T1, 100, func() {
		b.Addi(isa.T0, isa.T0, 2)
	})
	b.Mov(isa.A0, isa.T0)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustProgram builds a registry kernel (or any workload ref) at the given
// scale — the fixture most facade tests start from.
func mustProgram(t testing.TB, ref string, scale Scale) *Program {
	t.Helper()
	w, err := ParseWorkloadRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build(scale)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestSimulateMatchesEmulate(t *testing.T) {
	prog := tinyProgram(t)
	ref, err := Emulate(prog, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if ref.IntReg[isa.A0] != 200 {
		t.Errorf("emulated A0 = %d", ref.IntReg[isa.A0])
	}
	res, err := SimulateContext(context.Background(), BaseConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Error("program did not halt")
	}
	if res.Stats.Committed != ref.InstrCount {
		t.Errorf("committed %d, emulated %d", res.Stats.Committed, ref.InstrCount)
	}
	if res.Stats.StreamHash != ref.StreamHash {
		t.Error("stream hash mismatch")
	}
}

func TestSimulateBudget(t *testing.T) {
	prog := mustProgram(t, "gzip", ScaleTest)
	res, err := SimulateContext(context.Background(), BaseConfig(), prog, WithMaxInstr(2_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Error("budgeted run reported halted")
	}
	if res.Stats.Committed < 2_000 {
		t.Errorf("committed %d < budget", res.Stats.Committed)
	}
}

func TestBenchmarkNames(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 18 {
		t.Fatalf("benchmarks = %d, want 18", len(names))
	}
	for _, n := range names {
		if mustProgram(t, n, ScaleTest) == nil {
			t.Errorf("benchmark %s nil", n)
		}
	}
}

func TestConfigConstructors(t *testing.T) {
	for _, cfg := range []Config{
		BaseConfig(), WIBConfig(), WIBConfigSized(512, 16), ScaledConfig(64, 128),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", cfg.Name, err)
		}
	}
	if WIBConfig().WIB == nil {
		t.Error("WIBConfig has no WIB")
	}
	if BaseConfig().WIB != nil {
		t.Error("BaseConfig has a WIB")
	}
}

func TestSimulateRejectsBadConfig(t *testing.T) {
	cfg := BaseConfig()
	cfg.ActiveList = -1
	if _, err := SimulateContext(context.Background(), cfg, tinyProgram(t)); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestSimulateReturnsErrorsNotPanics: SimulateContext returns an error by
// signature, so a geometry a constructor would panic on, or a machine with
// nothing to fetch into or issue from (which used to burn the million-
// cycle watchdog first), comes back as one — at once, on the plain and on
// the sampled path. ExploreContext says no to the same machines: its
// profiling pass builds a hierarchy and a predictor before any cell runs.
func TestSimulateReturnsErrorsNotPanics(t *testing.T) {
	prog := tinyProgram(t)
	plan, err := ParseSamplingPlan("n=2,len=100")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"l1d sets not a power of two", func(c *Config) { c.Mem.L1D.SizeBytes = 48 << 10 }},
		{"tlb sets not a power of two", func(c *Config) { c.Mem.TLBEntries = 100 }},
		{"tlb page not a power of two", func(c *Config) { c.Mem.TLBPageBytes = 5000 }},
		{"store-wait not a power of two", func(c *Config) { c.StoreWaitEntries = 1000 }},
		{"bimodal not a power of two", func(c *Config) { c.Bpred.BimodalEntries = 1000 }},
		{"btb zero ways", func(c *Config) { c.Bpred.BTBAssoc = 0 }},
		{"ras empty", func(c *Config) { c.Bpred.RASEntries = 0 }},
		{"no fetch queue", func(c *Config) { c.IFQSize = 0 }},
		{"no integer issue", func(c *Config) { c.IssueInt = 0 }},
		{"no integer ALU", func(c *Config) { c.NumIntALU = 0 }},
	} {
		for _, opts := range [][]Option{nil, {WithSampling(plan)}} {
			cfg := WIBConfig()
			row.mutate(&cfg)
			start := time.Now()
			res, err := SimulateContext(context.Background(), cfg, prog, opts...)
			if err == nil || res != nil {
				t.Errorf("%s (%d options): got (%v, %v), want an error", row.name, len(opts), res, err)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("%s (%d options): took %v to say no", row.name, len(opts), d)
			}
		}
		cfg := WIBConfig()
		row.mutate(&cfg)
		start := time.Now()
		rep, err := ExploreContext(context.Background(), []Config{BaseConfig(), cfg}, []string{"treeadd"},
			WithWorkloadScale(ScaleTest), WithMaxInstr(2000))
		if err == nil || rep != nil {
			t.Errorf("%s: ExploreContext got (%v, %v), want an error", row.name, rep, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: ExploreContext took %v to say no", row.name, d)
		}
	}
}

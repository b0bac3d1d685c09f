package trace

import (
	"reflect"
	"testing"

	"largewindow/internal/core"
	"largewindow/internal/golden"
	"largewindow/internal/isa"
	"largewindow/internal/workload"
)

// v1Fixture is treeadd at test scale recorded with a 2000-instruction
// budget by a writer that still stored the dynamic record stream: the
// file has a records section (tag 3) after code and data.
const v1Fixture = "testdata/treeadd_v1.wtr"

// TestV1FixtureStillReplays: a container written with a records section
// keeps its identity (the digest is over the stored bytes), passes
// Verify, and its program simulates exactly like the builder's.
func TestV1FixtureStillReplays(t *testing.T) {
	tr, err := ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/treeadd_v1.golden",
		"treeadd_v1.wtr identity <Trace.Identity()>, recorded with its records section.",
		map[string]string{"treeadd_v1.wtr identity": tr.Identity()})
	if err := tr.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	src, err := workload.ParseRef("bench:treeadd")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []core.Config{core.DefaultConfig(), core.WIBDefault()} {
		direct, err := src.Build(workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		want := runStats(t, cfg, direct)
		if got := runStats(t, cfg, tr.Program()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fixture replay stats differ from bench:treeadd\nreplay: %+v\ndirect: %+v", cfg.Name, got, want)
		}
	}
}

func runStats(t *testing.T, cfg core.Config, prog *isa.Program) *core.Stats {
	t.Helper()
	p, err := core.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(50_000, 0)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	return st
}

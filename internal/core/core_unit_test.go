package core

import (
	"errors"
	"testing"

	"largewindow/internal/isa"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := WIBDefault().Validate(); err != nil {
		t.Errorf("WIB config invalid: %v", err)
	}
	bad := WIBDefault()
	bad.WIB.Entries = 1024 // != active list
	if err := bad.Validate(); err == nil {
		t.Error("mismatched WIB size accepted")
	}
	bad2 := DefaultConfig()
	bad2.IntRegs = 32 // no rename headroom
	if err := bad2.Validate(); err == nil {
		t.Error("too-few registers accepted")
	}
	bad3 := WIBDefault()
	bad3.WIB.Banks = 7 // does not divide 2048
	if err := bad3.Validate(); err == nil {
		t.Error("non-dividing bank count accepted")
	}
}

func TestFUPoolPipelined(t *testing.T) {
	cfg := DefaultConfig()
	f := newFUPools(cfg)
	// 8 integer ALUs: 8 issues per cycle, the 9th fails.
	for i := 0; i < 8; i++ {
		if _, ok := f.tryIssue(isa.ClassIntALU, 5); !ok {
			t.Fatalf("ALU issue %d failed", i)
		}
	}
	if _, ok := f.tryIssue(isa.ClassIntALU, 5); ok {
		t.Error("9th ALU issue succeeded")
	}
	// Next cycle the pool is fresh.
	if _, ok := f.tryIssue(isa.ClassIntALU, 6); !ok {
		t.Error("ALU not refreshed next cycle")
	}
	// Branches/loads/stores share the ALU pool.
	for i := 0; i < 7; i++ {
		f.tryIssue(isa.ClassLoad, 7)
	}
	f.tryIssue(isa.ClassBranch, 7)
	if _, ok := f.tryIssue(isa.ClassStore, 7); ok {
		t.Error("load/branch/store did not share the ALU pool")
	}
}

func TestFUPoolNonPipelined(t *testing.T) {
	cfg := DefaultConfig() // 2 FP dividers, 12-cycle, non-pipelined
	f := newFUPools(cfg)
	if lat, ok := f.tryIssue(isa.ClassFPDiv, 10); !ok || lat != 12 {
		t.Fatalf("div issue = (%d,%v)", lat, ok)
	}
	if _, ok := f.tryIssue(isa.ClassFPDiv, 11); !ok {
		t.Fatal("second divider not available")
	}
	if _, ok := f.tryIssue(isa.ClassFPDiv, 12); ok {
		t.Error("third concurrent divide accepted")
	}
	// After the first divide finishes (10+12=22), a unit frees.
	if _, ok := f.tryIssue(isa.ClassFPDiv, 22); !ok {
		t.Error("divider not freed after latency")
	}
}

func TestWIBColumnLifecycle(t *testing.T) {
	w := newWIB(WIBConfig{Entries: 128, BitVectors: 2, Banked: true, Banks: 16}, 128, 64)
	c1, ok := w.allocColumn(100)
	if !ok {
		t.Fatal("first column alloc failed")
	}
	c2, ok := w.allocColumn(200)
	if !ok {
		t.Fatal("second column alloc failed")
	}
	if _, ok := w.allocColumn(300); ok {
		t.Error("third column allocated beyond bit-vector limit")
	}
	g1 := w.gen(c1)
	if !w.fresh(c1, g1) {
		t.Error("active column not fresh")
	}
	w.releaseColumn(c1)
	if w.fresh(c1, g1) {
		t.Error("released column still fresh")
	}
	c3, ok := w.allocColumn(300)
	if !ok || c3 != c1 {
		t.Errorf("released column not reused: %d vs %d", c3, c1)
	}
	if w.fresh(c3, g1) {
		t.Error("reused column fresh under old generation")
	}
	if !w.fresh(c3, w.gen(c3)) {
		t.Error("reused column not fresh under new generation")
	}
	w.releaseColumn(c2)
	w.releaseColumn(c2) // double release must be a no-op
	if len(w.free) != 1 {
		t.Errorf("free list corrupted by double release: %d", len(w.free))
	}
}

func TestWIBUnlimitedColumnsBoundByLoadQueue(t *testing.T) {
	w := newWIB(WIBConfig{Entries: 128, Banked: true, Banks: 16}, 128, 3)
	for i := 0; i < 3; i++ {
		if _, ok := w.allocColumn(uint64(i)); !ok {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if _, ok := w.allocColumn(99); ok {
		t.Error("allocated more columns than outstanding loads possible")
	}
}

func TestNonBankedPolicyNormalization(t *testing.T) {
	w := newWIB(WIBConfig{Entries: 128, Banked: false, AccessLatency: 4}, 128, 64)
	if w.cfg.Policy != PolicyProgramOrder {
		t.Errorf("non-banked policy = %v, want program-order", w.cfg.Policy)
	}
}

func TestPolicyString(t *testing.T) {
	names := map[WIBPolicy]string{
		PolicyBanked:         "banked",
		PolicyProgramOrder:   "program-order",
		PolicyRoundRobinLoad: "round-robin-load",
		PolicyOldestLoad:     "oldest-load",
		WIBPolicy(9):         "policy9",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestRunBudgetExpires(t *testing.T) {
	b := isa.NewBuilder("spin")
	top := b.Here()
	b.Addi(isa.T0, isa.T0, 1)
	b.J(top)
	prog := b.MustBuild()
	p, err := New(DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run(1000, 0)
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
	if stats.Committed < 1000 {
		t.Errorf("committed %d, want >= 1000", stats.Committed)
	}
	// Cycle budget too.
	p2, _ := New(DefaultConfig(), prog)
	stats2, err := p2.Run(0, 500)
	if !errors.Is(err, ErrBudget) {
		t.Errorf("cycle budget err = %v", err)
	}
	if stats2.Cycles < 500 {
		t.Errorf("cycles = %d", stats2.Cycles)
	}
}

func TestInvalidConfigRejectedByNew(t *testing.T) {
	bad := DefaultConfig()
	bad.ActiveList = 0
	b := isa.NewBuilder("nop")
	b.Halt()
	if _, err := New(bad, b.MustBuild()); err == nil {
		t.Error("New accepted invalid config")
	}
}

// TestNewRejectsWhatConstructorsPanicOn: each row used to get through
// Validate and then panic in a constructor (cache, TLB, predictor,
// store-wait geometry) or build a machine that can never fetch or issue
// and burns the whole watchdog before reporting a "deadlock".
func TestNewRejectsWhatConstructorsPanicOn(t *testing.T) {
	b := isa.NewBuilder("nop")
	b.Halt()
	prog := b.MustBuild()
	for _, row := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"l1d sets not a power of two", func(c *Config) { c.Mem.L1D.SizeBytes = 48 << 10 }},
		{"l1i zero ways", func(c *Config) { c.Mem.L1I.Assoc = 0 }},
		{"l2 line not a power of two", func(c *Config) { c.Mem.L2.LineBytes = 48 }},
		{"tlb sets not a power of two", func(c *Config) { c.Mem.TLBEntries = 100 }},
		{"tlb zero ways", func(c *Config) { c.Mem.TLBAssoc = 0 }},
		{"tlb page not a power of two", func(c *Config) { c.Mem.TLBPageBytes = 5000 }},
		{"store-wait not a power of two", func(c *Config) { c.StoreWaitEntries = 1000 }},
		{"bimodal not a power of two", func(c *Config) { c.Bpred.BimodalEntries = 1000 }},
		{"two-level zero", func(c *Config) { c.Bpred.TwoLevelEntries = 0 }},
		{"chooser negative", func(c *Config) { c.Bpred.ChooserEntries = -4096 }},
		{"btb sets not a power of two", func(c *Config) { c.Bpred.BTBEntries = 1000 }},
		{"btb zero ways", func(c *Config) { c.Bpred.BTBAssoc = 0 }},
		{"ras empty", func(c *Config) { c.Bpred.RASEntries = 0 }},
		{"no fetch queue", func(c *Config) { c.IFQSize = 0 }},
		{"no integer issue", func(c *Config) { c.IssueInt = 0 }},
		{"no fp issue", func(c *Config) { c.IssueFP = 0 }},
		{"no integer ALU", func(c *Config) { c.NumIntALU = 0 }},
		{"no fp divider", func(c *Config) { c.NumFPDiv = 0 }},
	} {
		cfg := WIBDefault()
		row.mutate(&cfg)
		if p, err := New(cfg, prog); err == nil || p != nil {
			t.Errorf("%s: New returned (%v, %v), want an error", row.name, p, err)
		}
	}
	// A disabled TLB's geometry is never built, so it is not checked.
	cfg := DefaultConfig()
	cfg.Mem.DisableTLB, cfg.Mem.TLBEntries = true, 0
	if _, err := New(cfg, prog); err != nil {
		t.Errorf("disabled TLB with no entries: %v", err)
	}
}

func TestStatsDerived(t *testing.T) {
	s := &Stats{CondBranches: 10, CondCorrect: 9, WIBInstructions: 4, WIBInsertions: 12}
	if s.CondAccuracy() != 0.9 {
		t.Errorf("accuracy = %v", s.CondAccuracy())
	}
	if s.AvgWIBInsertions() != 3 {
		t.Errorf("avg insertions = %v", s.AvgWIBInsertions())
	}
	var empty Stats
	if empty.CondAccuracy() != 1 || empty.AvgWIBInsertions() != 0 || empty.AvgROBOccupancy() != 0 {
		t.Error("empty stats derived values wrong")
	}
}

func TestDebugDumpRenders(t *testing.T) {
	p, err := New(WIBDefault(), progALUChain())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p.cycle()
	}
	if s := p.DebugDump(4); len(s) == 0 {
		t.Error("empty dump")
	}
}

// TestStatsPlausibility checks cross-cutting invariants of a full run.
func TestStatsPlausibility(t *testing.T) {
	prog := progBranchy()
	p, err := New(DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run(0, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IPC <= 0 || stats.IPC > 8 {
		t.Errorf("IPC = %v out of range", stats.IPC)
	}
	if stats.CondBranches == 0 {
		t.Error("no conditional branches counted")
	}
	if stats.CondAccuracy() < 0.5 {
		t.Errorf("accuracy = %v implausibly low", stats.CondAccuracy())
	}
	if stats.FetchedInstrs < stats.Committed {
		t.Error("fetched fewer than committed")
	}
	if got := stats.ClassCount(isa.ClassHalt); got != 1 {
		t.Errorf("halt count = %d", got)
	}
}

// TestWIBRecyclingCounted verifies the insertion-count statistic the
// paper reports (§4.1): with a WIB, dependence chains of misses must show
// nonzero insertions, and reinsertions must balance to completion.
func TestWIBRecyclingCounted(t *testing.T) {
	prog := progPointerChase(256, 8192)
	p, err := New(WIBDefault(), prog)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run(0, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WIBInsertions == 0 {
		t.Error("pointer chase triggered no WIB insertions")
	}
	if stats.WIBInstructions == 0 || stats.WIBMaxInsertions < 1 {
		t.Error("per-instruction insertion stats missing")
	}
	if stats.AvgWIBInsertions() < 1 {
		t.Errorf("avg insertions = %v < 1", stats.AvgWIBInsertions())
	}
}

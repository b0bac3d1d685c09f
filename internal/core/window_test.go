package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"largewindow/internal/bpred"
	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/mem"
	"largewindow/internal/workload"
)

// The two functions below are the sequences RunWindow replaced, kept as
// its oracle: handRolledPlain is what the facade, the harness and wibsim
// each wrote out (New → Restore → RunContext, ratios off the hierarchy),
// handRolledInterval the body of the sampler's per-interval loop (adopt
// warm state, restore, detailed warm-up, measured unit, deltas).

// handRolled is what either sequence observed.
type handRolled struct {
	stats    Stats
	l1d, l2  mem.CacheStats
	tlbAcc   uint64
	tlbMiss  uint64
	halted   bool
	measured bool
	total    uint64 // how far the processor ran (absolute committed)
}

func handRolledPlain(t *testing.T, cfg Config, prog *isa.Program, cp *emu.Checkpoint, maxInstr uint64, maxCycles int64) handRolled {
	t.Helper()
	p, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if cp != nil {
		if err := p.RestoreCheckpoint(cp); err != nil {
			t.Fatal(err)
		}
	}
	st, runErr := p.RunContext(context.Background(), maxInstr, maxCycles)
	if runErr != nil && !errors.Is(runErr, ErrBudget) {
		t.Fatal(runErr)
	}
	h := p.Hierarchy()
	acc, miss := h.TLBStats()
	return handRolled{
		stats: *st, l1d: h.L1DStats(), l2: h.L2Stats(), tlbAcc: acc, tlbMiss: miss,
		halted: runErr == nil, measured: true, total: st.Committed,
	}
}

func handRolledInterval(t *testing.T, cfg Config, prog *isa.Program, cp *emu.Checkpoint, h *mem.Hierarchy, bp *bpred.Predictor, warmup, length uint64, maxCycles int64) handRolled {
	t.Helper()
	ctx := context.Background()
	p, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	h.ResetTiming()
	if err := p.AdoptWarmState(h, bp.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := p.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	var pre Stats
	var preDL1, preL2 struct{ acc, miss uint64 }
	var preTLBAcc, preTLBMiss uint64
	if warmup > 0 {
		st, err := p.RunContext(ctx, warmup, maxCycles)
		if err != nil && !errors.Is(err, ErrBudget) {
			t.Fatal(err)
		}
		if err == nil || st.Committed < warmup {
			return handRolled{halted: err == nil}
		}
		pre = *st
		hh := p.Hierarchy()
		l1d, l2 := hh.L1DStats(), hh.L2Stats()
		preDL1.acc, preDL1.miss = l1d.Accesses, l1d.Misses
		preL2.acc, preL2.miss = l2.Accesses, l2.Misses
		preTLBAcc, preTLBMiss = hh.TLBStats()
	}
	st, err := p.RunContext(ctx, warmup+length, maxCycles)
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	hh := p.Hierarchy()
	l1d, l2 := hh.L1DStats(), hh.L2Stats()
	ta, tm := hh.TLBStats()
	return handRolled{
		stats:    st.Delta(pre),
		l1d:      mem.CacheStats{Accesses: l1d.Accesses - preDL1.acc, Misses: l1d.Misses - preDL1.miss},
		l2:       mem.CacheStats{Accesses: l2.Accesses - preL2.acc, Misses: l2.Misses - preL2.miss},
		tlbAcc:   ta - preTLBAcc,
		tlbMiss:  tm - preTLBMiss,
		halted:   err == nil,
		measured: true,
		total:    st.Committed,
	}
}

func compareWindow(t *testing.T, got WindowResult, want handRolled) {
	t.Helper()
	if got.Measured != want.measured || got.Halted != want.halted {
		t.Fatalf("measured/halted = %v/%v, hand-rolled %v/%v", got.Measured, got.Halted, want.measured, want.halted)
	}
	if !reflect.DeepEqual(got.Stats, want.stats) {
		t.Errorf("stats diverge\n got %+v\nwant %+v", got.Stats, want.stats)
	}
	if got.L1D.Accesses != want.l1d.Accesses || got.L1D.Misses != want.l1d.Misses ||
		got.L2.Accesses != want.l2.Accesses || got.L2.Misses != want.l2.Misses ||
		got.TLB.Accesses != want.tlbAcc || got.TLB.Misses != want.tlbMiss {
		t.Errorf("cache/TLB counters diverge: got L1D %+v L2 %+v TLB %+v, hand-rolled L1D %+v L2 %+v TLB %d/%d",
			got.L1D, got.L2, got.TLB, want.l1d, want.l2, want.tlbAcc, want.tlbMiss)
	}
	if got.Measured && got.Warmed+got.Stats.Committed != want.total {
		t.Errorf("processor ran %d+%d instructions, hand-rolled %d", got.Warmed, got.Stats.Committed, want.total)
	}
}

// TestWindowMatchesHandRolled holds RunWindow to the code it replaced:
// bit-identical Stats (StreamHash included), cache and TLB counters, for
// plain runs, skip windows, prebuilt checkpoints, sampled intervals on
// adopted warm state, and every way a window can end early.
func TestWindowMatchesHandRolled(t *testing.T) {
	ctx := context.Background()
	for _, bench := range []string{"gzip", "art", "treeadd"} {
		spec, ok := workload.Get(bench)
		if !ok {
			t.Fatalf("no kernel %s", bench)
		}
		prog := spec.Build(workload.ScaleRun)
		total, err := emu.New(prog).Run(1 << 40)
		if err != nil {
			t.Fatal(err)
		}
		cp5k, err := emu.BuildCheckpoint(prog, 5000)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{DefaultConfig(), WIBDefault()} {
			name := func(c string) string { return fmt.Sprintf("%s/%s/%s", bench, cfg.Name, c) }

			plain := []struct {
				name      string
				skip      uint64 // built fresh on both sides
				cp        *emu.Checkpoint
				maxInstr  uint64
				maxCycles int64
				halts     bool
			}{
				{name: "plain", maxInstr: 8000},
				{name: "skip=5000", skip: 5000, maxInstr: 8000},
				{name: "prebuilt-checkpoint", cp: cp5k, maxInstr: 8000},
				{name: "maxCycles", maxCycles: 3000},
				{name: "to-halt", skip: total - 3000, halts: true},
				{name: "skip-past-halt", skip: total + 10, maxInstr: 8000, halts: true},
			}
			for _, tc := range plain {
				t.Run(name(tc.name), func(t *testing.T) {
					cp, cp2 := tc.cp, tc.cp
					if tc.skip > 0 {
						var err error
						if cp, err = emu.BuildCheckpoint(prog, tc.skip); err != nil {
							t.Fatal(err)
						}
						if cp2, err = emu.BuildCheckpoint(prog, tc.skip); err != nil {
							t.Fatal(err)
						}
					}
					want := handRolledPlain(t, cfg, prog, cp, tc.maxInstr, tc.maxCycles)
					got, err := RunWindow(ctx, cfg, prog, Window{Start: cp2, Measure: tc.maxInstr, MaxCycles: tc.maxCycles})
					if err != nil {
						t.Fatal(err)
					}
					compareWindow(t, got, want)
					if got.Halted != tc.halts {
						t.Errorf("halted = %v, the case wants %v", got.Halted, tc.halts)
					}
					if got.Proc == nil {
						t.Error("no processor returned")
					}
				})
			}

			// Sampled intervals: the emulator runs to the window's start
			// streaming into a live hierarchy and predictor, exactly as
			// sample.Run drives it, once per side.
			intervals := []struct {
				name      string
				start     uint64
				warmup    uint64
				length    uint64
				maxCycles int64
				// The shape the case exists to exercise.
				measured, halted bool
			}{
				{name: "warm1000+measure8000", start: total / 4, warmup: 1000, length: 8000, measured: true},
				{name: "no-warmup", start: total / 4, length: 3000, measured: true},
				{name: "halt-in-warmup", start: total - 400, warmup: 1000, length: 8000, halted: true},
				{name: "halt-in-window", start: total - 3000, warmup: 1000, length: 8000, measured: true, halted: true},
				{name: "maxCycles-in-warmup", start: total / 4, warmup: 1000, length: 8000, maxCycles: 100},
				{name: "maxCycles-in-window", start: total / 4, warmup: 200, length: 200000, maxCycles: 20000, measured: true},
			}
			for _, tc := range intervals {
				t.Run(name(tc.name), func(t *testing.T) {
					warmTo := func() (*emu.Checkpoint, WarmSink) {
						m := emu.New(prog)
						sink := WarmSink{H: mem.NewHierarchy(cfg.Mem), BP: bpred.New(cfg.Bpred)}
						if _, err := m.RunSink(tc.start, sink); err != nil && !errors.Is(err, emu.ErrNotHalted) {
							t.Fatal(err)
						}
						return m.Checkpoint(), sink
					}
					cp, sink := warmTo()
					want := handRolledInterval(t, cfg, prog, cp, sink.H, sink.BP, tc.warmup, tc.length, tc.maxCycles)

					cp, sink = warmTo()
					sink.H.ResetTiming()
					got, err := RunWindow(ctx, cfg, prog, Window{
						Start: cp, Hier: sink.H, Bpred: sink.BP.Clone(),
						Warmup: tc.warmup, Measure: tc.length, MaxCycles: tc.maxCycles,
					})
					if err != nil {
						t.Fatal(err)
					}
					compareWindow(t, got, want)
					if got.Measured != tc.measured || got.Halted != tc.halted {
						t.Errorf("measured/halted = %v/%v, the case wants %v/%v", got.Measured, got.Halted, tc.measured, tc.halted)
					}
					if tc.maxCycles > 0 && got.Measured && got.Stats.Committed >= tc.length {
						t.Errorf("window committed %d of %d: the cycle bound never hit", got.Stats.Committed, tc.length)
					}
				})
			}
		}
	}
}

// TestWindowCountersAreTheWindowsOwn: an adopted hierarchy arrives with
// whatever its earlier windows counted; a window's cache and TLB counters
// must cover its own accesses only, warm-up or not. (The sampler's
// hand-rolled loop snapshotted the counters only after a warm-up, so a
// warm=0 plan summed every earlier window into each later one.)
func TestWindowCountersAreTheWindowsOwn(t *testing.T) {
	spec, _ := workload.Get("gzip")
	prog := spec.Build(workload.ScaleTest)
	cfg := DefaultConfig()
	h := mem.NewHierarchy(cfg.Mem)
	var sum mem.CacheStats
	for i := 0; i < 3; i++ {
		before := h.L1DStats()
		h.ResetTiming()
		w, err := RunWindow(context.Background(), cfg, prog, Window{Hier: h, Measure: 2000})
		if err != nil {
			t.Fatal(err)
		}
		after := h.L1DStats()
		if w.L1D.Accesses != after.Accesses-before.Accesses || w.L1D.Misses != after.Misses-before.Misses {
			t.Errorf("window %d reports L1D %+v; the hierarchy counted %d accesses, %d misses",
				i, w.L1D, after.Accesses-before.Accesses, after.Misses-before.Misses)
		}
		sum.Accesses += w.L1D.Accesses
	}
	if got := h.L1DStats().Accesses; sum.Accesses != got {
		t.Errorf("windows sum to %d L1D accesses, the hierarchy counted %d", sum.Accesses, got)
	}
}

// TestWindowLabelsFailures: a structured failure carries the context's
// workload labels, and the processor comes back for dumps.
func TestWindowLabelsFailures(t *testing.T) {
	spec, _ := workload.Get("gzip")
	prog := spec.Build(workload.ScaleTest)
	cfg := DefaultConfig()
	cfg.DeadlockCycles = 1
	ctx := WithLabels(context.Background(), "gzip", "test")
	for _, w := range []Window{{Measure: 5000}, {Warmup: 1000, Measure: 5000}} {
		res, err := RunWindow(ctx, cfg, prog, w)
		var se *SimError
		if !errors.As(err, &se) {
			t.Fatalf("err = %v, want a SimError", err)
		}
		if se.Bench != "gzip" || se.Scale != "test" {
			t.Errorf("SimError labelled %q/%q, want gzip/test", se.Bench, se.Scale)
		}
		if res.Proc == nil {
			t.Error("failed window returned no processor")
		}
	}
}

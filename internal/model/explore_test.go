package model

import (
	"errors"
	"hash/fnv"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"largewindow/internal/core"
	"largewindow/internal/workload"
)

// fakeExec stands in for the detailed core: cycles from a hash of the
// cell, deterministic and cheap.
func fakeExec(cfg core.Config, bench string) (uint64, float64, error) {
	h := fnv.New64a()
	h.Write([]byte(cfg.Name + "\x00" + bench))
	cycles := 20_000 + h.Sum64()%40_000
	return cycles, 10_000 / float64(cycles), nil
}

// serialBatch is a batch Exec that runs its cells one after another on
// exec.
func serialBatch(exec cellExec) ExecFunc {
	return func(cells []Cell) []Measured {
		out := make([]Measured, len(cells))
		for k, c := range cells {
			m := &out[k]
			m.Cycles, m.IPC, m.Err = exec(c.Config, c.Bench)
		}
		return out
	}
}

func batchTestSpace(exec cellExec) *Space {
	return &Space{
		Configs: []core.Config{
			core.ScaledConfig(16, 64),
			core.DefaultConfig(),
			core.WIBConfigSized(256, 0),
			core.WIBConfigSized(1024, 0),
			core.WIBConfigSized(2048, 0),
			core.WIBConfigSized(2048, 16),
			core.WIBConfigSized(4096, 0),
		},
		Benches: []string{
			"synth:mlp=1,miss=0.1,ws=4m,n=10000",
			"synth:mlp=4,miss=0.1,ws=4m,n=10000",
			"synth:mlp=8,miss=0.3,ws=4m,n=10000",
		},
		Scale: workload.ScaleTest, Pruning: Pruning{TopK: 2, AuditFrac: 0.25, Seed: 7},
		Exec: serialBatch(exec),
	}
}

// TestExploreMatchesOracle: the Report is the one the pooled batch runner
// gives at widths 1, 2 and 3, and an exec that fails some cells fails
// both with the same error.
func TestExploreMatchesOracle(t *testing.T) {
	injected := errors.New("injected failure")
	failing := func(cfg core.Config, bench string) (uint64, float64, error) {
		if cycles, _, _ := fakeExec(cfg, bench); cycles%3 == 0 {
			return 0, 0, injected
		}
		return fakeExec(cfg, bench)
	}
	for _, w := range []int{1, 2, 3} {
		for _, tc := range []struct {
			name string
			exec cellExec
		}{{"passing", fakeExec}, {"failing", failing}} {
			sp := batchTestSpace(tc.exec)
			want, wantErr := sp.explore(oracleSimulate(sp, tc.exec, w))
			if (wantErr != nil) != (tc.name == "failing") {
				t.Fatalf("width %d, %s exec: oracle error %v", w, tc.name, wantErr)
			}
			got, err := batchTestSpace(tc.exec).Explore()
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Errorf("width %d, %s exec: error %v, oracle's %v", w, tc.name, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("width %d, %s exec: report differs from the oracle's\n got %+v\nwant %+v", w, tc.name, got, want)
			}
		}
	}
}

// TestExploreCostliestFirst: Exec gets each of the two batches once, its
// cells bench by bench (program-major), benches by summed predicted cycles
// and each bench's cells by their own, costliest first and ties to the
// lower index.
func TestExploreCostliestFirst(t *testing.T) {
	var calls []string
	batches := 0
	sp := batchTestSpace(fakeExec)
	sp.Exec = func(cells []Cell) []Measured {
		batches++
		for _, c := range cells {
			calls = append(calls, c.Config.Name+"|"+c.Bench)
		}
		return serialBatch(fakeExec)(cells)
	}
	rep, err := sp.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if batches != 2 {
		t.Errorf("Exec called %d times, want once per batch (2)", batches)
	}
	nb := len(sp.Benches)
	// The oracle's order, stably regrouped by bench: benches by summed
	// cost, longest first, ties to the lower bench index.
	programMajor := func(points []Point, cells []int) []int {
		lpt := oracleLPTOrder(points, cells)
		cost := make([]float64, nb)
		for _, idx := range cells {
			cost[idx%nb] += points[idx].Pred.Cycles
		}
		benches := make([]int, nb)
		for bi := range benches {
			benches[bi] = bi
		}
		sort.SliceStable(benches, func(a, b int) bool { return cost[benches[a]] > cost[benches[b]] })
		var out []int
		for _, bi := range benches {
			for _, idx := range lpt {
				if idx%nb == bi {
					out = append(out, idx)
				}
			}
		}
		return out
	}
	want, err := batchOrders(sp, rep, programMajor)
	if err != nil {
		t.Fatal(err)
	}
	if got := callIndices(rep, calls); !slices.Equal(got, want) {
		t.Errorf("cells ran in order %v, want %v", got, want)
	}
}

// batchOrders is the order Exec must get both batches' cells in under
// order: the anchors on raw predictions, the second batch on
// calibrated ones (the report's).
func batchOrders(sp *Space, rep *Report, order func([]Point, []int) []int) ([]int, error) {
	profiles, err := sp.oracleCollectProfiles()
	if err != nil {
		return nil, err
	}
	nb := len(sp.Benches)
	raw := slices.Clone(rep.Points)
	var anchors, second []int
	for idx := range raw {
		raw[idx].Pred = Predict(profiles[idx], sp.Configs[idx/nb])
		switch {
		case rep.Points[idx].Anchor:
			anchors = append(anchors, idx)
		case rep.Points[idx].Simulated:
			second = append(second, idx)
		}
	}
	return append(order(raw, anchors), order(rep.Points, second)...), nil
}

// callIndices maps "config|bench" calls to report cell indices.
func callIndices(rep *Report, calls []string) []int {
	index := map[string]int{}
	for idx, pt := range rep.Points {
		index[pt.Config+"|"+pt.Bench] = idx
	}
	out := make([]int, len(calls))
	for k, c := range calls {
		out[k] = index[c]
	}
	return out
}

// TestCollectProfilesMatchesSerial: the profiling phase gives the serial
// loop's profiles at every width.
func TestCollectProfilesMatchesSerial(t *testing.T) {
	sp := batchTestSpace(fakeExec)
	sp.Benches = append(sp.Benches, "gzip", "mst")
	sp.ProfileInstr = 20_000
	want, err := sp.oracleCollectProfiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 3, 0} {
		sp.workers = w
		got, err := sp.collectProfiles(func(string, ...any) {})
		if err != nil {
			t.Fatalf("%d workers: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: profiles differ from the serial loop's", w)
		}
	}
}

// TestExploreErrorNamesLowestFailingCell: whichever cells fail, the error
// names the failing cell with the lowest index, not the first in the
// batch's order.
func TestExploreErrorNamesLowestFailingCell(t *testing.T) {
	sp := batchTestSpace(fakeExec)
	serial, err := sp.Explore()
	if err != nil {
		t.Fatal(err)
	}
	order, err := batchOrders(sp, serial, sp.programMajor)
	if err != nil {
		t.Fatal(err)
	}
	second := order[serial.Anchors:]
	// Every second cell of the second batch by index; and two cells of it,
	// one ahead of the other in Exec's order but above it by index.
	sorted := slices.Clone(second)
	slices.Sort(sorted)
	var everyOther, inverted []int
	for i := 0; i < len(sorted); i += 2 {
		everyOther = append(everyOther, sorted[i])
	}
	for i := 0; i < len(second) && inverted == nil; i++ {
		for _, idx := range second[i+1:] {
			if idx < second[i] {
				inverted = []int{second[i], idx}
				break
			}
		}
	}
	if inverted == nil {
		t.Fatal("the second batch runs in index order; the test needs an inversion")
	}
	injected := errors.New("injected failure")
	for _, failing := range [][]int{everyOther, inverted} {
		fail := map[string]bool{}
		for _, idx := range failing {
			pt := serial.Points[idx]
			fail[pt.Config+"|"+pt.Bench] = true
		}
		low := serial.Points[slices.Min(failing)]
		want := "model: explore cell " + low.Config + " × " + low.Bench + ": "
		_, err := batchTestSpace(func(cfg core.Config, bench string) (uint64, float64, error) {
			if fail[cfg.Name+"|"+bench] {
				return 0, 0, injected
			}
			return fakeExec(cfg, bench)
		}).Explore()
		if !errors.Is(err, injected) || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("cells %v failing: error %v, want it to start %q", failing, err, want)
		}
	}
}

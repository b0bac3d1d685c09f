package model

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
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

func batchTestSpace(exec ExecFunc, workers int) *Space {
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
		Scale: workload.ScaleTest, TopK: 2, AuditFrac: 0.25, Seed: 7,
		Exec: exec, workers: workers,
	}
}

// gatedExec wraps an ExecFunc so that every call of a batch starts before
// any finishes, and then they finish one at a time in the order perm
// gives (a permutation of arrival positions). sizes are the batches'
// lengths, in order; workers must be at least the largest.
type gatedExec struct {
	exec  ExecFunc
	sizes []int
	perm  func(n int) []int

	mu      sync.Mutex
	arrived []chan struct{}
	done    chan struct{}
}

func newGatedExec(exec ExecFunc, sizes []int, perm func(n int) []int) *gatedExec {
	return &gatedExec{exec: exec, sizes: sizes, perm: perm, done: make(chan struct{})}
}

func (g *gatedExec) call(cfg core.Config, bench string) (uint64, float64, error) {
	release := make(chan struct{})
	g.mu.Lock()
	g.arrived = append(g.arrived, release)
	if len(g.sizes) > 0 && len(g.arrived) == g.sizes[0] {
		batch := g.arrived
		g.arrived, g.sizes = nil, g.sizes[1:]
		go func() {
			for _, i := range g.perm(len(batch)) {
				close(batch[i])
				<-g.done
			}
		}()
	}
	g.mu.Unlock()
	<-release
	defer func() { g.done <- struct{}{} }()
	return g.exec(cfg, bench)
}

func reversed(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = n - 1 - i
	}
	return p
}

// completionOrders are the ways a batch's cells may finish: last arrival
// first, and seeded shuffles.
func completionOrders() []struct {
	name string
	perm func(n int) []int
} {
	rng := rand.New(rand.NewSource(1))
	return []struct {
		name string
		perm func(n int) []int
	}{{"reverse", reversed}, {"random", rng.Perm}}
}

// TestExploreParallelMatchesSerial: the Report is the serial one whatever
// order a batch's cells finish in and however many run at once.
func TestExploreParallelMatchesSerial(t *testing.T) {
	serial, err := batchTestSpace(fakeExec, 1).Explore()
	if err != nil {
		t.Fatal(err)
	}
	if serial.Audited == 0 || serial.Simulated == serial.Anchors {
		t.Fatalf("second batch unexercised: %d simulated, %d anchors, %d audited", serial.Simulated, serial.Anchors, serial.Audited)
	}
	sizes := []int{serial.Anchors, serial.Simulated - serial.Anchors}
	for _, o := range completionOrders() {
		g := newGatedExec(fakeExec, sizes, o.perm)
		got, err := batchTestSpace(g.call, len(serial.Points)).Explore()
		if err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("%s completion order: report differs from the serial one\n got %+v\nwant %+v", o.name, got, serial)
		}
	}
	for _, par := range []int{2, 3, 0} {
		got, err := batchTestSpace(fakeExec, par).Explore()
		if err != nil {
			t.Fatalf("%d workers: %v", par, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("%d workers: report differs from the serial one", par)
		}
	}
}

// TestExploreCostliestFirst: one worker takes each batch's cells in
// descending predicted cycles, ties to the lower cell index.
func TestExploreCostliestFirst(t *testing.T) {
	var mu sync.Mutex
	var calls []string
	sp := batchTestSpace(func(cfg core.Config, bench string) (uint64, float64, error) {
		mu.Lock()
		calls = append(calls, cfg.Name+"|"+bench)
		mu.Unlock()
		return fakeExec(cfg, bench)
	}, 1)
	rep, err := sp.Explore()
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := sp.collectProfiles(t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	nb := len(sp.Benches)
	index := map[string]int{}
	for idx, pt := range rep.Points {
		index[pt.Config+"|"+pt.Bench] = idx
	}
	// The anchors run on raw predictions, the second batch on calibrated
	// ones (the report's).
	cost := func(k int) float64 {
		idx := index[calls[k]]
		if k < rep.Anchors {
			return Predict(profiles[idx], sp.Configs[idx/nb]).Cycles
		}
		return rep.Points[idx].Pred.Cycles
	}
	for k := 1; k < len(calls); k++ {
		if k == rep.Anchors {
			continue // a new batch
		}
		if a, b := cost(k-1), cost(k); a < b || (a == b && index[calls[k-1]] > index[calls[k]]) {
			t.Errorf("call %d (%s, %.0f cycles) ran before call %d (%s, %.0f cycles)", k-1, calls[k-1], a, k, calls[k], b)
		}
	}
}

// TestExploreErrorNamesLowestFailingCell: whichever failing cell finishes
// first, the error names the failing cell with the lowest index.
func TestExploreErrorNamesLowestFailingCell(t *testing.T) {
	serial, err := batchTestSpace(fakeExec, 1).Explore()
	if err != nil {
		t.Fatal(err)
	}
	// Fail every second cell of the second batch.
	var second []int
	for idx, pt := range serial.Points {
		if pt.Simulated && !pt.Anchor {
			second = append(second, idx)
		}
	}
	injected := errors.New("injected failure")
	fail := map[string]bool{}
	for i := 0; i < len(second); i += 2 {
		pt := serial.Points[second[i]]
		fail[pt.Config+"|"+pt.Bench] = true
	}
	first := serial.Points[second[0]]
	want := "model: explore cell " + first.Config + " × " + first.Bench + ": "
	failing := func(cfg core.Config, bench string) (uint64, float64, error) {
		if fail[cfg.Name+"|"+bench] {
			return 0, 0, injected
		}
		return fakeExec(cfg, bench)
	}
	check := func(name string, exec ExecFunc, par int) {
		_, err := batchTestSpace(exec, par).Explore()
		if !errors.Is(err, injected) || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: error %v, want it to start %q", name, err, want)
		}
	}
	for _, par := range []int{1, 2, 0} {
		check(strconv.Itoa(par)+" workers", failing, par)
	}
	sizes := []int{serial.Anchors, serial.Simulated - serial.Anchors}
	for _, o := range completionOrders() {
		check(o.name+" completion order", newGatedExec(failing, sizes, o.perm).call, len(serial.Points))
	}
}

package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestSaneETAFrac holds the one ETA rule (Progress.ETA) to the fleet's
// old estimator on every vector that estimator pinned — none has a hit:
// sane positive estimates for partial progress (including sub-cell
// fractions from in-flight sampled intervals, passed as credit), and -1
// for every shape with no defensible estimate.
func TestSaneETAFrac(t *testing.T) {
	cases := []struct {
		name    string
		done    float64
		total   uint64
		elapsed float64
		want    float64
	}{
		{"half done in 10s", 5, 10, 10, 10},
		{"fractional interval progress", 2.5, 10, 5, 15},
		{"3 of 12 in 6 s", 3, 12, 6, 18},
		{"nothing done", 0, 10, 5, -1},
		{"negative done", -1, 10, 5, -1},
		{"already complete", 10, 10, 5, -1},
		{"over-complete", 11, 10, 5, -1},
		{"zero elapsed", 5, 10, 0, -1},
		{"zero total", 0.5, 0, 5, -1},
	}
	for _, c := range cases {
		if got := oracleSaneETAFrac(c.done, c.total, c.elapsed); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: oracle(%g, %d, %g) = %g, want %g",
				c.name, c.done, c.total, c.elapsed, got, c.want)
		}
		whole := math.Floor(max(c.done, 0))
		p := Progress{Submitted: c.total, Done: uint64(whole), ElapsedSec: c.elapsed}
		if got := p.ETA(c.done - whole); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: ETA of %d/%d cells + %g credit in %g s = %g, want %g",
				c.name, p.Done, c.total, c.done-whole, c.elapsed, got, c.want)
		}
	}
}

// TestETAMatchesFleetOracle: over seeded hit-free vectors with in-flight
// credit, the one rule gives the fleet's old estimate to rounding.
func TestETAMatchesFleetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		total := uint64(1 + rng.Intn(5000))
		p := Progress{Submitted: total, Done: uint64(rng.Intn(int(total) + 1)), ElapsedSec: rng.Float64() * 400_000}
		p.Failed = uint64(rng.Intn(int(total-p.Done) + 1))
		credit := rng.Float64() * float64(rng.Intn(4))
		want := oracleSaneETAFrac(float64(p.Done+p.Failed)+credit, total, p.ElapsedSec)
		if want > 99*3600 {
			want = -1 // the one rule prints no ETA above 99 hours
		}
		if got := p.ETA(credit); math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%+v, credit %g: ETA %g, oracle %g", p, credit, got, want)
		}
	}
}

// oracleSaneETAFrac is the fleet's ETA rule as it stood before the fleet
// line and the local line shared one (Progress.ETA): elapsed time per finished cell,
// in-flight credit included, times the cells left. It counted a store hit
// as a finished cell like any other; -1 is unknown.
func oracleSaneETAFrac(done float64, total uint64, elapsedSec float64) float64 {
	if done <= 0 || float64(total) <= done || elapsedSec <= 0 {
		return -1
	}
	eta := elapsedSec / done * (float64(total) - done)
	if math.IsNaN(eta) || math.IsInf(eta, 0) || eta < 0 {
		return -1
	}
	return eta
}

// TestProgressModelFieldsOmitEmpty keeps the wire format clean: the
// interval and model-prune accounting added for model-guided sweeps must
// vanish from the JSON encoding when zero, so pre-existing consumers see
// byte-identical Progress events for ordinary campaigns.
func TestProgressModelFieldsOmitEmpty(t *testing.T) {
	plain, err := json.Marshal(Progress{Submitted: 4, Done: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"intervals_done", "intervals_planned", "model_pruned", "model_audited"} {
		if strings.Contains(string(plain), field) {
			t.Errorf("zero-valued %q leaked into %s", field, plain)
		}
	}
	full, err := json.Marshal(Progress{
		Submitted: 4, Done: 2,
		IntervalsDone: 3, IntervalsPlanned: 8,
		ModelPruned: 11, ModelAudited: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"intervals_done", "intervals_planned", "model_pruned", "model_audited"} {
		if !strings.Contains(string(full), field) {
			t.Errorf("%q missing from %s", field, full)
		}
	}
}

// TestInFlightIgnoresOrder: the in-flight sum is the one the coordinator
// and a local session both take, so it is held to the coordinator's lease
// vector here (service's TestLeaseCreditIgnoresMapOrder) — eleven cells
// part-way in, one that has not announced its plan, one past its plan —
// and summed in fifty orders it agrees to the bit.
func TestInFlightIgnoresOrder(t *testing.T) {
	type cell struct{ done, planned uint64 }
	var cells []cell
	for i, planned := range []uint64{3, 7, 9, 11, 13, 17, 19, 23, 29, 31, 37, 0} {
		cells = append(cells, cell{uint64(i) + 1, planned})
	}
	cells = append(cells, cell{12, 10})
	sum := func() (f InFlight) {
		for _, c := range cells {
			f.Add(c.done, c.planned)
		}
		return f
	}
	first := sum()
	if first.Done != 66+12 || first.Planned != 199+10 {
		t.Fatalf("intervals = %d/%d, want 78/209", first.Done, first.Planned)
	}
	var exact float64
	for i, p := range []float64{3, 7, 9, 11, 13, 17, 19, 23, 29, 31, 37} {
		exact += float64(i+1) / p
	}
	if exact++; math.Abs(first.Credit()-exact) > 1e-6 {
		t.Fatalf("credit = %v, want %v", first.Credit(), exact)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		rng.Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })
		if got := sum(); got != first {
			t.Fatalf("order %d: %+v (credit %v), first order %+v (credit %v)", i, got, got.Credit(), first, first.Credit())
		}
	}
}

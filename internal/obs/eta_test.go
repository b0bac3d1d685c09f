package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestSaneETAFrac pins the fractional ETA estimator used by the
// coordinator's interval-aware progress model: sane positive estimates
// for partial progress (including sub-cell fractions from in-flight
// sampled intervals), and -1 for every shape with no defensible
// estimate.
func TestSaneETAFrac(t *testing.T) {
	cases := []struct {
		name    string
		done    float64
		total   uint64
		elapsed float64
		want    float64 // exact, or NaN to assert "-1 sentinel"
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
		got := SaneETAFrac(c.done, c.total, c.elapsed)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: SaneETAFrac(%g, %d, %g) = %g, want %g",
				c.name, c.done, c.total, c.elapsed, got, c.want)
		}
	}
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

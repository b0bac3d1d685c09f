package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"largewindow/internal/telemetry"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables: BENCHMARK.json declares exactly the
// workloads and metrics the binary emits, with the same units, directions
// and bounds, inside the contract's limits.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, binary default %d", m.RunSeconds, runSeconds)
	}
	if got := strings.Join(m.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command = %q", got)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d built in", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		d := m.Workloads[i]
		if d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %q %q, built in %q %q", i, d.Name, d.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q breaks the name or why limits", w.name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d+%d metrics, tables hold %d+%d", len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		got := m.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, d := range perLayer {
		got := m.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, got, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v breaks the name, unit or direction limits", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
}

func quickRun(t *testing.T, w *workloadDef, seed uint64, traced bool) *report {
	t.Helper()
	opt := runOpts{seed: seed, seconds: 0, sz: quickSizes, tmpRoot: t.TempDir()}
	if traced {
		opt.traceDir = t.TempDir()
	}
	rep, err := runWorkload(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("%s seed %d: %s", w.name, seed, f)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s seed %d: correct=%v failed=%d attempted=%d", w.name, seed, rep.Correct, rep.Failed, rep.Attempted)
	}
	return rep
}

func checkMetrics(t *testing.T, what string, defs []metricDef, got map[string]metric, nonZero bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", what, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", what, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, d.Name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must be positive", what, d.Name, m.Value)
		}
	}
}

// TestQuickSmoke runs all six workloads at test scale, in process, traced:
// every declared metric comes out finite and unit-tagged, nothing fails,
// the Chrome trace loads, every per-layer metric is measured by at least
// one workload, and sim_digest repeats at the same seed and moves with
// the seed exactly on the workloads whose inputs are seeded.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short mode")
	}
	measured := map[string]bool{}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rep := quickRun(t, w, 1, true)
			checkMetrics(t, w.name+" end-to-end", endToEnd, rep.Metrics, true)
			checkMetrics(t, w.name+" per-layer", perLayer, rep.PerLayer, false)
			for _, d := range perLayer {
				if rep.Samples[d.Name] > 0 {
					measured[d.Name] = true
				}
			}
			var line struct {
				Correct   *bool             `json:"correct"`
				Attempted *int              `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(rep.contractLine()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Errorf("contract line %s: %v", rep.contractLine(), err)
			}
			checkMetrics(t, w.name+" traced contract line", perLayer, line.Metrics, false)

			f, err := os.Open(rep.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := telemetry.ReadChromeTrace(f)
			f.Close()
			if err != nil || tr.Events == 0 {
				t.Errorf("trace %s: %+v, %v", rep.TraceFile, tr, err)
			}

			again, other := quickRun(t, w, 1, false), quickRun(t, w, 2, false)
			if again.SimDigest != rep.SimDigest {
				t.Errorf("sim_digest differs between two runs at seed 1: %s, %s", rep.SimDigest, again.SimDigest)
			}
			if moved := other.SimDigest != rep.SimDigest; moved != w.seeded {
				t.Errorf("sim_digest moved with the seed = %v, workload seeded = %v", moved, w.seeded)
			}
		})
	}
	for _, d := range perLayer {
		if !measured[d.Name] && d.Name != "facade.digest_changed_cells" { // needs the full-scale baseline
			t.Errorf("no workload measured per-layer metric %s", d.Name)
		}
	}
}

// TestCorruptedHashFails: the golden-model check notices a stream hash
// that is off by one bit, and a run with a failed check is not correct
// (main exits non-zero on it).
func TestCorruptedHashFails(t *testing.T) {
	e := &env{seed: 1, sz: quickSizes, tmp: t.TempDir()}
	inst, err := findWorkload("fig4-base").setup(e)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	tm := measure(inst, 0)
	if checks, bad := inst.verify(tm.first); checks != len(inst.steps) || len(bad) != 0 {
		t.Fatalf("clean run: %d checks, failures %v", checks, bad)
	}
	tm.first[3].cells[0].Hash ^= 1
	if _, bad := inst.verify(tm.first); len(bad) != 1 {
		t.Errorf("corrupted hash: %d failures, want 1: %v", len(bad), bad)
	}
}

// TestCompareVerdicts pins -compare's three verdicts on synthetic files.
func TestCompareVerdicts(t *testing.T) {
	mk := func(walls ...float64) string {
		var runs []report
		for _, w := range walls {
			m := metricSet{}
			for _, d := range endToEnd {
				m.set(d.Name, 1, 1)
			}
			m.set("wall_s", w, 1)
			r := report{Workload: "fig4-base", Correct: true, Attempted: 1}
			r.Metrics, r.Samples = m.render(endToEnd)
			runs = append(runs, r)
		}
		path := t.TempDir() + "/out.json"
		if err := writeOut(path, runs, true); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(1.00, 1.01, 1.02)
	for _, tc := range []struct {
		name      string
		other     string
		verdict   string
		regressed bool
	}{
		{"same", mk(1.01, 1.02, 1.00), "ok", false},
		{"slower", mk(1.30, 1.31, 1.32), "regressed", true},
		{"noisy", mk(0.8, 1.1, 1.6), "unresolved", false},
		{"noisy but all better", mk(0.5, 0.7, 0.9), "ok", false},
	} {
		var out strings.Builder
		regressed, err := compareFiles(&out, base, tc.other)
		if err != nil {
			t.Fatal(err)
		}
		var wall string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "wall_s") {
				wall = l
			}
		}
		if regressed != tc.regressed || !strings.Contains(wall, " "+tc.verdict+" ") {
			t.Errorf("%s: regressed=%v, row %q; want %v, %s", tc.name, regressed, wall, tc.regressed, tc.verdict)
		}
	}
}

// TestReferenceSpeed: a pass that ran beside a host twice as slow counts
// half its measured time, and latencies likewise; as measured it counts
// in full.
func TestReferenceSpeed(t *testing.T) {
	tm := &timing{
		passes:   2,
		slow:     []float64{1, 2},
		stepSecs: [][]float64{{1, 2}, {3, 6}},
		stepLat:  [][][]float64{{{10}, {20}}, {{30}, {60}}},
	}
	if got := tm.passSeconds(true); got != 4 {
		t.Errorf("reference-speed pass = %v s, want 4", got)
	}
	if got := tm.passSeconds(false); got != 6 {
		t.Errorf("as-measured pass = %v s, want 6", got)
	}
	if lat := tm.callLatencies(); len(lat) != 2 || lat[0] != 10 || lat[1] != 30 {
		t.Errorf("reference-speed latencies = %v, want [10 30]", lat)
	}
	if got := slowdown(calibNominal, 3*calibNominal); got != 2 {
		t.Errorf("slowdown = %v, want 2", got)
	}
}

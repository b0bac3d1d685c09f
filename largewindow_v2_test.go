package largewindow

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"largewindow/internal/core"
	"largewindow/internal/telemetry"
)

func TestSimulateContextMaxInstr(t *testing.T) {
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

func TestSimulateContextMaxCycles(t *testing.T) {
	prog := mustProgram(t, "gzip", ScaleTest)
	res, err := SimulateContext(context.Background(), BaseConfig(), prog, WithMaxCycles(500))
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Error("cycle-budgeted run reported halted")
	}
	if res.Stats.Cycles < 500 || res.Stats.Cycles > 1_000 {
		t.Errorf("cycles = %d, want ~500", res.Stats.Cycles)
	}
}

func TestSimulateContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead before the run starts
	prog := mustProgram(t, "mst", ScaleRun)
	_, err := SimulateContext(ctx, BaseConfig(), prog)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not unwrap to context.Canceled: %v", err)
	}
}

// TestSimulateContextLabelsFailures: a structured failure out of the
// facade names the workload it ran — plain and sampled alike — so a crash
// dump written from it replays.
func TestSimulateContextLabelsFailures(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, err := ParseWorkloadRef("gzip")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseSamplingPlan("n=2,len=200,warm=100")
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string][]Option{
		"plain":   {WithWorkload(w, ScaleTest)},
		"sampled": {WithWorkload(w, ScaleTest), WithSampling(plan)},
	} {
		_, err := SimulateContext(ctx, BaseConfig(), nil, opts...)
		var se *core.SimError
		if !errors.As(err, &se) {
			t.Fatalf("%s: err = %v, want a SimError", name, err)
		}
		if se.Bench != "gzip" || se.Scale != "test" {
			t.Errorf("%s: SimError labelled %q/%q, want gzip/test", name, se.Bench, se.Scale)
		}
	}
	// A bare program has a name but no scale.
	_, err = SimulateContext(ctx, BaseConfig(), mustProgram(t, "gzip", ScaleTest))
	var se *core.SimError
	if !errors.As(err, &se) || se.Bench != "gzip" || se.Scale != "" {
		t.Errorf("bare program: err = %v, want a SimError labelled gzip with no scale", err)
	}
}

func TestSimulateContextTelemetry(t *testing.T) {
	var buf bytes.Buffer
	prog := mustProgram(t, "gzip", ScaleTest)
	res, err := SimulateContext(context.Background(), BaseConfig(), prog,
		WithMaxInstr(5_000), WithTelemetry(&buf, 256))
	if err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ReadSamples(&buf)
	if err != nil {
		t.Fatalf("telemetry stream unreadable: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("no telemetry samples collected")
	}
	last := samples[len(samples)-1]
	if last.Cycle > res.Stats.Cycles {
		t.Errorf("sample cycle %d beyond run end %d", last.Cycle, res.Stats.Cycles)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	prog := mustProgram(t, "gzip", ScaleTest)
	res, err := SimulateContext(context.Background(), BaseConfig(), prog, WithMaxInstr(5_000))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"schema_version":1`)) {
		t.Error("encoded result carries no schema version")
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res, back) {
		t.Error("result JSON round-trip lost data")
	}
	// Derived metrics that live in unexported Stats fields must survive.
	if back.Stats.AvgMLP() != res.Stats.AvgMLP() || back.Stats.AvgROBOccupancy() != res.Stats.AvgROBOccupancy() {
		t.Error("derived stats diverge after round-trip")
	}
}

func TestResultJSONGoldenV1(t *testing.T) {
	data, err := os.ReadFile("testdata/result_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("golden v1 result no longer decodes: %v", err)
	}
	if res.Stats.Committed != 300000 || res.Stats.Cycles != 98304 {
		t.Errorf("golden stats mangled: committed=%d cycles=%d", res.Stats.Committed, res.Stats.Cycles)
	}
	if res.DL1MissRatio != 0.2034 || res.TLBMissRatio != 0.0021 {
		t.Errorf("golden ratios mangled: dl1=%v tlb=%v", res.DL1MissRatio, res.TLBMissRatio)
	}
	if res.Halted {
		t.Error("golden halted flag mangled")
	}
	if res.Stats.AvgMLP() == 0 {
		t.Error("golden MLP accumulators lost in decode")
	}
	// And back: the encoder must reproduce the golden byte for byte
	// (the file is hand-indented, so compare compacted).
	back, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, want.Bytes()) {
		t.Errorf("re-encoded golden differs from testdata/result_v1.json:\n got %s\nwant %s", back, want.Bytes())
	}
}

func TestResultJSONRejectsFutureSchema(t *testing.T) {
	var res Result
	err := json.Unmarshal([]byte(`{"schema_version": 99, "halted": true}`), &res)
	if err == nil {
		t.Fatal("future schema version accepted")
	}
	if !strings.Contains(err.Error(), "99") {
		t.Errorf("error %q does not name the offending version", err)
	}
}

func TestResultJSONAcceptsLegacyUnversioned(t *testing.T) {
	var res Result
	if err := json.Unmarshal([]byte(`{"halted": true}`), &res); err != nil {
		t.Fatalf("legacy unversioned result rejected: %v", err)
	}
	if !res.Halted {
		t.Error("legacy decode dropped fields")
	}
}

func TestParseWorkloadRef(t *testing.T) {
	w, err := ParseWorkloadRef("bench:gzip")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "gzip" || w.Ref() != "bench:gzip" || w.Identity() != "bench:gzip" {
		t.Errorf("bench source = %q/%q/%q", w.Name(), w.Ref(), w.Identity())
	}
	// Bare names resolve as bench refs.
	if bare, err := ParseWorkloadRef("gzip"); err != nil || bare.Identity() != w.Identity() {
		t.Errorf("bare name != bench ref: %v, %v", bare, err)
	}
	for _, bad := range []string{"nope", "warp:x", "synth:mlp=99"} {
		if _, err := ParseWorkloadRef(bad); err == nil {
			t.Errorf("ParseWorkloadRef(%q) accepted", bad)
		}
	}
	// An unknown kernel name must teach the caller the valid ones.
	_, err = ParseWorkloadRef("nope")
	for _, name := range []string{"art", "gzip", "treeadd"} {
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("error %v does not list %q", err, name)
		}
	}
}

func TestWithWorkload(t *testing.T) {
	ctx := context.Background()
	w, err := ParseWorkloadRef("synth:mlp=2,miss=0.05,entropy=0.5,ws=64k,n=20000")
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateContext(ctx, BaseConfig(), nil,
		WithWorkload(w, ScaleTest), WithMaxInstr(5_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Committed < 5_000 {
		t.Errorf("synth workload committed %d < budget", res.Stats.Committed)
	}

	// A bench workload through WithWorkload must match the prog path
	// exactly.
	bw, err := ParseWorkloadRef("bench:gzip")
	if err != nil {
		t.Fatal(err)
	}
	v1, err := SimulateContext(ctx, BaseConfig(), mustProgram(t, "gzip", ScaleTest), WithMaxInstr(3_000))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := SimulateContext(ctx, BaseConfig(), nil, WithWorkload(bw, ScaleTest), WithMaxInstr(3_000))
	if err != nil {
		t.Fatal(err)
	}
	if v1.Stats.Cycles != v2.Stats.Cycles || v1.Stats.StreamHash != v2.Stats.StreamHash {
		t.Errorf("WithWorkload diverges from prog path: %d vs %d cycles", v1.Stats.Cycles, v2.Stats.Cycles)
	}

	// Supplying both prog and workload is an error; so is neither.
	if _, err := SimulateContext(ctx, BaseConfig(), mustProgram(t, "gzip", ScaleTest), WithWorkload(bw, ScaleTest)); err == nil {
		t.Error("prog + WithWorkload accepted")
	}
	if _, err := SimulateContext(ctx, BaseConfig(), nil); err == nil {
		t.Error("nil prog without WithWorkload accepted")
	}
}

package largewindow

import (
	"context"
	"reflect"
	"testing"
)

func TestWithSkipSetsMeasuredWindow(t *testing.T) {
	prog := mustProgram(t, "gzip", ScaleTest)
	res, err := SimulateContext(context.Background(), BaseConfig(), prog,
		WithSkip(5_000), WithMeasure(3_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Skipped != 5_000 {
		t.Errorf("Skipped = %d, want 5000", res.Stats.Skipped)
	}
	if res.Stats.Committed < 3_000 {
		t.Errorf("measured region committed %d < 3000", res.Stats.Committed)
	}
	// The skipped instructions must NOT appear in the measured counters.
	if res.Stats.Committed >= 5_000 {
		t.Errorf("Committed = %d includes skipped instructions", res.Stats.Committed)
	}
}

func TestWithCheckpointSharesOneFunctionalPass(t *testing.T) {
	// One FastForward pass, reused across two configurations — the v2
	// surface of the campaign-level checkpoint sharing.
	cp, err := FastForward(mustProgram(t, "gzip", ScaleTest), 5_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{BaseConfig(), WIBConfig()} {
		res, err := SimulateContext(context.Background(), cfg, mustProgram(t, "gzip", ScaleTest),
			WithCheckpoint(cp), WithMeasure(2_000))
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if res.Stats.Skipped != 5_000 {
			t.Errorf("%s: Skipped = %d, want 5000", cfg.Name, res.Stats.Skipped)
		}
	}
}

func TestWithCheckpointMatchesWithSkip(t *testing.T) {
	// WithSkip builds internally exactly what FastForward+WithCheckpoint
	// builds externally: identical stats either way.
	viaSkip, err := SimulateContext(context.Background(), BaseConfig(), mustProgram(t, "art", ScaleTest),
		WithSkip(4_000), WithMeasure(2_000))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := FastForward(mustProgram(t, "art", ScaleTest), 4_000)
	if err != nil {
		t.Fatal(err)
	}
	viaCp, err := SimulateContext(context.Background(), BaseConfig(), mustProgram(t, "art", ScaleTest),
		WithCheckpoint(cp), WithMeasure(2_000))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaSkip.Stats, viaCp.Stats) {
		t.Errorf("WithSkip and WithCheckpoint diverge\n got %+v\nwant %+v", viaCp.Stats, viaSkip.Stats)
	}
}

func TestSkipZeroIsPlainRun(t *testing.T) {
	plain, err := SimulateContext(context.Background(), BaseConfig(), mustProgram(t, "gzip", ScaleTest),
		WithMaxInstr(5_000))
	if err != nil {
		t.Fatal(err)
	}
	skipped, err := SimulateContext(context.Background(), BaseConfig(), mustProgram(t, "gzip", ScaleTest),
		WithSkip(0), WithMaxInstr(5_000))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Stats, skipped.Stats) {
		t.Errorf("WithSkip(0) changed the run\n got %+v\nwant %+v", skipped.Stats, plain.Stats)
	}
}

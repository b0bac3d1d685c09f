// What attaching a collector costs: the same kernel is simulated with and
// without one. Counters are fields read at sample time, so the attached
// run pays for the sampler's per-cycle Tick, the load-latency histogram
// and the samples themselves, and the detached run for three untaken nil
// checks. This file is an external test package so it can drive the
// instrumented core (core imports telemetry; the reverse import would
// cycle).
package telemetry_test

import (
	"io"
	"slices"
	"testing"
	"time"

	"largewindow/internal/core"
	"largewindow/internal/telemetry"
	"largewindow/internal/workload"
)

// simulate runs one mgrid window and returns the cycle count.
func simulate(b testing.TB, attach bool) int64 {
	spec, ok := workload.Get("mgrid")
	if !ok {
		b.Fatal("mgrid kernel missing")
	}
	prog := spec.Build(workload.ScaleTest)
	p, err := core.New(core.WIBDefault(), prog)
	if err != nil {
		b.Fatal(err)
	}
	if attach {
		p.AttachTelemetry(telemetry.NewCollector(io.Discard, 1000))
	}
	st, err := p.Run(0, 2_000_000)
	if err != nil {
		b.Fatalf("run: %v", err)
	}
	return st.Cycles
}

// BenchmarkTelemetryOff measures the core with no collector attached — the
// production path (each of the three probes is one nil check).
func BenchmarkTelemetryOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		simulate(b, false)
	}
}

// BenchmarkTelemetryOn measures the same run with a collector attached
// and sampling every 1000 cycles.
func BenchmarkTelemetryOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		simulate(b, true)
	}
}

// telemetryOverhead estimates what attaching a collector costs: the
// median, over pairs, of an attached run's time over a detached run's
// taken right beside it. Two testing.Benchmark results taken one after
// the other drift apart with the host's speed by more than the bound
// (one full go test ./... read +44.9%); pairing cancels that drift, and
// the median sheds the pairs a noisy neighbour hit on one side only.
// Which side goes first alternates, so a drift within a pair cancels too.
func telemetryOverhead(tb testing.TB, pairs int) float64 {
	timed := func(attach bool) time.Duration {
		start := time.Now()
		simulate(tb, attach)
		return time.Since(start)
	}
	ratios := make([]float64, pairs)
	for i := range ratios {
		var on, off time.Duration
		if i%2 == 0 {
			on = timed(true)
			off = timed(false)
		} else {
			off = timed(false)
			on = timed(true)
		}
		ratios[i] = float64(on) / float64(off)
	}
	slices.Sort(ratios)
	return ratios[pairs/2]
}

// TestDisabledTelemetryOverhead is the overhead gate run by
// scripts/check.sh: it fails only on a gross regression (>25%), far above
// the <2% budget the benchmark pair measures precisely, so that a loaded
// machine does not fail it. What it guards is the sampler: a Tick that
// does work between sampling points, or a counter function that is not a
// field read.
func TestDisabledTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	const pairs = 31
	simulate(t, false) // warm the heap and the caches before the first pair
	ratio := telemetryOverhead(t, pairs)
	t.Logf("telemetry enabled overhead %.1f%% (median of %d paired runs)", 100*(ratio-1), pairs)
	if ratio > 1.25 {
		t.Errorf("telemetry-enabled run is %.1f%% slower than disabled — the sampler's Tick is no longer cheap", 100*(ratio-1))
	}
}

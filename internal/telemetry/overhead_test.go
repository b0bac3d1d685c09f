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
	"testing"

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

// TestDisabledTelemetryOverhead is the informational smoke check run by
// scripts/check.sh: it reports the on/off ratio and fails only on a gross
// regression (>25%), far above the <2% budget the benchmark pair measures
// precisely — a tight bound here would make tier-1 flaky on loaded
// machines. What it guards is the sampler: a Tick that does work between
// sampling points, or a counter function that is not a field read.
func TestDisabledTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	off := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simulate(b, false)
		}
	})
	on := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simulate(b, true)
		}
	})
	offNs := float64(off.NsPerOp())
	onNs := float64(on.NsPerOp())
	ratio := onNs / offNs
	t.Logf("telemetry off: %.2fms/run, on: %.2fms/run, enabled overhead %.1f%%",
		offNs/1e6, onNs/1e6, 100*(ratio-1))
	if ratio > 1.25 {
		t.Errorf("telemetry-enabled run is %.1f%% slower than disabled — the sampler's Tick is no longer cheap", 100*(ratio-1))
	}
}

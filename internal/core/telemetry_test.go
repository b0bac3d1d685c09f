package core

import (
	"bytes"
	"testing"

	"largewindow/internal/telemetry"
	"largewindow/internal/workload"
)

// TestTelemetryCountersMatchStats runs a kernel with a collector attached
// and checks that the sampled stream parses and its final cumulative
// counters agree with the end-of-run Stats — the two reporting paths must
// never diverge.
func TestTelemetryCountersMatchStats(t *testing.T) {
	spec, ok := workload.Get("mgrid")
	if !ok {
		t.Fatal("mgrid kernel missing from the workload registry")
	}
	prog := spec.Build(workload.ScaleTest)
	cfg := WIBDefault()
	p, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	col := telemetry.NewCollector(&buf, 500)
	p.AttachTelemetry(col)
	st, err := p.Run(0, 2_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := col.Close(st.Cycles); err != nil {
		t.Fatalf("close: %v", err)
	}

	samples, err := telemetry.ReadSamples(&buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples emitted")
	}
	last := samples[len(samples)-1]
	if last.Cycle != st.Cycles {
		t.Fatalf("final sample at cycle %d, run ended at %d", last.Cycle, st.Cycles)
	}
	if got := last.Counters["core.commit.instrs"]; got != st.Committed {
		t.Fatalf("sampled commits %d != stats %d", got, st.Committed)
	}
	if got := last.Counters["core.fetch.instrs"]; got != st.FetchedInstrs {
		t.Fatalf("sampled fetches %d != stats %d", got, st.FetchedInstrs)
	}
	if got := last.Counters["wib.insertions"]; got != st.WIBInsertions {
		t.Fatalf("sampled WIB insertions %d != stats %d", got, st.WIBInsertions)
	}
	if got := last.Counters["mem.l1d.misses"]; got != p.Hierarchy().L1DStats().Misses {
		t.Fatalf("sampled L1D misses %d != hierarchy %d", got, p.Hierarchy().L1DStats().Misses)
	}
	if _, ok := last.Gauges["core.ipc"]; !ok {
		t.Fatalf("core.ipc gauge missing from final sample: %v", last.Gauges)
	}
	if _, ok := last.Gauges["wib.occupancy"]; !ok {
		t.Fatal("wib.occupancy gauge missing (WIB config)")
	}
}

// TestMLPStat checks the memory-level-parallelism statistic: at least one
// kernel at test scale must overlap L2 misses, and the accounting
// invariants (peak ≥ avg ≥ 1 over miss cycles) must hold everywhere.
func TestMLPStat(t *testing.T) {
	cfg := WIBDefault()
	overlapped := false
	for _, spec := range workload.All() {
		prog := spec.Build(workload.ScaleTest)
		p, err := New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.Run(0, 2_000_000)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		avg := st.AvgMLP()
		if st.MLPCycles() == 0 {
			if avg != 0 || st.MLPPeak != 0 {
				t.Fatalf("%s: no miss cycles but avg=%v peak=%d", spec.Name, avg, st.MLPPeak)
			}
			continue
		}
		if avg < 1 || float64(st.MLPPeak) < avg {
			t.Fatalf("%s: inconsistent MLP: avg=%v peak=%d cycles=%d",
				spec.Name, avg, st.MLPPeak, st.MLPCycles())
		}
		if st.MLPPeak > 1 {
			overlapped = true
		}
	}
	if !overlapped {
		t.Fatal("no kernel ever overlapped two L2 misses — MLP tracking is broken")
	}
}

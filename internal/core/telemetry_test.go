package core

import (
	"bytes"
	"testing"

	"largewindow/internal/telemetry"
	"largewindow/internal/workload"
)

// TestTelemetryCountersMatchStats runs a kernel with a collector attached
// and checks that the sampled stream parses and that the final value of
// each of the seven pipeline series is the end-of-run count it names: the
// five that Stats reports equal their Stats field, and the two it does not
// (dispatch, issue slots) equal what this run read when each series had an
// increment of its own at the event, which is what pins their meaning.
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
	for _, s := range []struct {
		name string
		want uint64
	}{
		{"core.fetch.instrs", st.FetchedInstrs},
		{"core.dispatch.instrs", 27260},
		{"core.issue.slots", 57934},
		{"core.commit.instrs", st.Committed},
		{"core.squash.instrs", st.SquashedInstrs},
		{"wib.insertions", st.WIBInsertions},
		{"wib.reinsertions", st.WIBReinsertions},
	} {
		if got, ok := last.Counters[s.name]; !ok || got != s.want {
			t.Errorf("series %s ends at %d (present %v), want %d", s.name, got, ok, s.want)
		}
	}
	fetch, dispatch, commit := last.Counters["core.fetch.instrs"], last.Counters["core.dispatch.instrs"], last.Counters["core.commit.instrs"]
	if commit > dispatch || dispatch > fetch || commit == 0 {
		t.Errorf("commit %d ≤ dispatch %d ≤ fetch %d does not hold", commit, dispatch, fetch)
	}
	if last.Counters["core.issue.slots"] == 0 {
		t.Error("core.issue.slots is zero on a run that committed instructions")
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

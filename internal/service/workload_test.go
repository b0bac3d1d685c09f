package service

import (
	"sync/atomic"
	"testing"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/harness"
	"largewindow/internal/trace"
	"largewindow/internal/workload"
)

// TestDistributedExternalWorkloads runs trace: and synth: cells end to
// end through a coordinator + real-executor worker fleet: the cells
// travel as (ref, identity) pairs — no program bytes on the wire — the
// worker re-resolves and verifies the ref, the persisted records carry
// the workload fields, and resubmitting the same cells is served from
// the coordinator's dedup without re-execution.
func TestDistributedExternalWorkloads(t *testing.T) {
	src, err := workload.ParseRef("bench:treeadd")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(src, workload.ScaleTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	tracePath := t.TempDir() + "/treeadd.wtr.gz"
	if err := tr.WriteFile(tracePath); err != nil {
		t.Fatal(err)
	}

	session := harness.NewSession(harness.Options{Scale: workload.ScaleTest})
	var executions atomic.Int64
	countingExec := func(c campaign.Cell) (*campaign.Record, error) {
		executions.Add(1)
		return session.ExecCell(c, nil)
	}

	store, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, srv := startCoordinator(t, CoordinatorOptions{LeaseTTL: 5 * time.Second, Store: store})
	startWorkers(t, srv.URL, 2, countingExec)
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 100 * time.Millisecond})

	mkCell := func(ref string) campaign.Cell {
		s, err := workload.ParseRef(ref)
		if err != nil {
			t.Fatalf("%s: %v", ref, err)
		}
		return campaign.Cell{
			Config:     core.DefaultConfig(),
			Bench:      s.Name(),
			Scale:      workload.ScaleTest,
			MaxInstr:   3_000,
			MaxCycles:  1 << 20,
			Workload:   s.Ref(),
			WorkloadID: s.Identity(),
		}
	}
	cells := []campaign.Cell{
		mkCell("trace:" + tracePath),
		mkCell("synth:mlp=2,miss=0.1,entropy=0.5,ws=64k,n=20000"),
	}

	for _, cell := range cells {
		rec, err := client.Exec(cell)
		if err != nil {
			t.Fatalf("%s: %v", cell.Workload, err)
		}
		if rec.Workload != cell.Workload || rec.WorkloadID != cell.WorkloadID {
			t.Errorf("record workload fields = (%q, %q), want (%q, %q)",
				rec.Workload, rec.WorkloadID, cell.Workload, cell.WorkloadID)
		}
		if rec.Stats.Committed == 0 {
			t.Errorf("%s: empty run", cell.Workload)
		}
		// The persisted record must round-trip with the workload fields.
		got, err := store.Get(cell.ID())
		if err != nil {
			t.Fatalf("store.Get(%s): %v", cell.ID(), err)
		}
		if got.WorkloadID != cell.WorkloadID {
			t.Errorf("persisted WorkloadID = %q, want %q", got.WorkloadID, cell.WorkloadID)
		}
	}
	ran := executions.Load()
	if ran != int64(len(cells)) {
		t.Fatalf("executed %d cells, want %d", ran, len(cells))
	}

	// Resubmitting identical cells must dedup on the content-addressed
	// cell ID — zero new executions.
	for _, cell := range cells {
		if _, err := client.Exec(cell); err != nil {
			t.Fatalf("resubmit %s: %v", cell.Workload, err)
		}
	}
	if again := executions.Load(); again != ran {
		t.Errorf("resubmission re-executed cells: %d → %d", ran, again)
	}

	// A ref whose content does not match the addressed identity must
	// fail permanently — the guard against a trace file changing between
	// submit and execution.
	bad := cells[0]
	bad.WorkloadID = "trace:sha256:0000000000000000000000000000000000000000000000000000000000000000"
	if _, err := client.Exec(bad); err == nil {
		t.Error("identity-mismatched cell did not fail")
	}
}

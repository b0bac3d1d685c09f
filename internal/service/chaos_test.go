package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/harness"
	"largewindow/internal/workload"
)

// chaosConfigs is the campaign grid of the chaos sweep: a debug-checked
// machine (so injected corruption is detected, as in internal/fault) and
// a second config so checkpdedup/sharing is exercised across configs.
func chaosConfigs() []core.Config {
	a := core.DefaultConfig()
	a.Name = "chaos-base"
	a.Debug = true
	b := core.ScaledConfig(64, 128)
	b.Name = "chaos-scaled"
	return []core.Config{a, b}
}

func chaosCells() []campaign.Cell {
	var cells []campaign.Cell
	for _, cfg := range chaosConfigs() {
		for _, bench := range []string{"gzip", "art", "treeadd"} {
			cells = append(cells, campaign.Cell{
				Config:    cfg,
				Bench:     bench,
				Scale:     workload.ScaleTest,
				MaxInstr:  3_000,
				MaxCycles: 1 << 20,
			})
		}
	}
	return cells
}

// TestChaosSweepByteIdentical is the tentpole acceptance test: a sweep
// executed by a fleet suffering a killed worker, an orphaned lease, and
// a corrupted simulation mid-campaign must still complete — and the
// records it persists must be byte-identical to a single-process run of
// the same cells. It is the proof that the store's invariants (content
// addressing, atomic writes, failures-never-persisted) make re-dispatch
// after arbitrary worker faults safe.
func TestChaosSweepByteIdentical(t *testing.T) {
	cells := chaosCells()

	// --- single-process reference run ---
	serialStore, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	serial := harness.NewSession(harness.Options{Scale: workload.ScaleTest})
	for _, cell := range cells {
		rec, err := serial.ExecCell(cell, nil)
		if err != nil {
			t.Fatalf("serial %s: %v", cell, err)
		}
		rec.CellID = cell.ID()
		if err := serialStore.Put(rec); err != nil {
			t.Fatal(err)
		}
	}

	// --- distributed run under chaos ---
	distStore, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, srv := startCoordinator(t, CoordinatorOptions{
		Store:    distStore,
		LeaseTTL: 300 * time.Millisecond,
		Retry:    campaign.RetryPolicy{MaxAttempts: 3},
	})

	// The whole sweep is submitted up front — the queue must be hot
	// before the victim worker asks for work.
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 300 * time.Millisecond})
	if _, err := client.Submit(cells); err != nil {
		t.Fatal(err)
	}

	// Worker 0 is the victim: it grabs one cell and is SIGKILLed
	// mid-execution (no completion, no further heartbeats — the
	// coordinator must recover via lease expiry alone).
	victimLeased := make(chan struct{})
	victimRelease := make(chan struct{})
	var victimOnce sync.Once
	victim := NewWorker(WorkerOptions{
		Server: srv.URL,
		ID:     "victim",
		Exec: func(c campaign.Cell) (*campaign.Record, error) {
			victimOnce.Do(func() { close(victimLeased) })
			<-victimRelease // "mid-execution" forever; orphaned by Kill
			return nil, errors.New("unreachable")
		},
		PollWait: 100 * time.Millisecond,
	})
	defer close(victimRelease)
	victimDone := make(chan struct{})
	go func() { defer close(victimDone); victim.Run(context.Background()) }()
	<-victimLeased
	victim.Kill()
	<-victimDone

	// Healthy workers execute real cells through a shared harness
	// session — but one chaotic twist remains: the first attempt at one
	// chosen cell runs on a machine whose pipeline state was corrupted by
	// seeded fault injection (internal/fault's FaultIQCountSkew, caught
	// by the armed invariant checker), standing in for a worker with bad
	// memory. The chaos fleet classifies every failure transient —
	// "blame the worker, re-dispatch" — so the coordinator retries the
	// cell on a healthy path.
	target := cells[2] // chaos-base / treeadd
	exec := harness.NewSession(harness.Options{Scale: workload.ScaleTest})
	sabotage := harness.NewSession(harness.Options{
		Scale: workload.ScaleTest,
		PreRun: func(p *core.Processor, cfg core.Config, src workload.Source) {
			rng := rand.New(rand.NewSource(7))
			for cyc := int64(200); cyc <= 20_000; cyc += 200 {
				if _, err := p.Run(0, cyc); !errors.Is(err, core.ErrBudget) {
					return
				}
				if p.Inject(core.FaultIQCountSkew, rng) {
					return
				}
			}
		},
	})
	var sabotaged atomic.Bool
	chaoticExec := func(c campaign.Cell) (*campaign.Record, error) {
		if c.ID() == target.ID() && !sabotaged.Swap(true) {
			rec, err := sabotage.ExecCell(c, nil)
			if err == nil {
				return nil, fmt.Errorf("chaos: injected fault in %s went undetected", c)
			}
			return rec, err
		}
		return exec.ExecCell(c, nil)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var healthyDone sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerOptions{
			Server:   srv.URL,
			ID:       fmt.Sprintf("healthy-%d", i),
			Exec:     chaoticExec,
			Classify: func(error) bool { return true },
			PollWait: 100 * time.Millisecond,
		})
		healthyDone.Add(1)
		go func() { defer healthyDone.Done(); w.Run(ctx) }()
	}
	defer healthyDone.Wait()
	defer cancel()

	// Await every cell the way `experiments -server` does (Exec
	// resubmits, which dedups against the already-queued cells).
	type outcome struct {
		id  string
		err error
	}
	results := make(chan outcome, len(cells))
	for _, cell := range cells {
		cell := cell
		go func() {
			_, err := client.Exec(cell)
			results <- outcome{cell.ID(), err}
		}()
	}
	for range cells {
		o := <-results
		if o.err != nil {
			t.Fatalf("cell %s failed under chaos: %v", o.id, o.err)
		}
	}

	// The chaos must actually have happened.
	st := coord.Stats()
	if st.LeaseExpiries == 0 {
		t.Error("killed worker never expired a lease — chaos did not engage")
	}
	if st.Retries == 0 {
		t.Error("corrupted simulation never retried — chaos did not engage")
	}
	if !sabotaged.Load() {
		t.Error("sabotaged cell never executed")
	}

	// And despite it: every record byte-identical to the serial run.
	serialIDs, err := serialStore.IDs()
	if err != nil {
		t.Fatal(err)
	}
	distIDs, err := distStore.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(serialIDs) != len(cells) || len(distIDs) != len(cells) {
		t.Fatalf("stores hold %d serial / %d distributed records, want %d", len(serialIDs), len(distIDs), len(cells))
	}
	for _, id := range serialIDs {
		want, err := os.ReadFile(serialStore.Path(id))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(distStore.Path(id))
		if err != nil {
			t.Fatalf("record %s missing from distributed store: %v", id, err)
		}
		if string(got) != string(want) {
			t.Errorf("record %s differs between serial and chaos-distributed runs", id)
		}
	}
}

package harness

import (
	"context"
	"errors"
	"sync"
	"testing"

	"largewindow/internal/core"
	"largewindow/internal/workload"
)

// TestSessionCancelMidCampaign: cancelling the session context in the
// middle of RunAll must stop the sweep without corrupting the cache —
// cells finished before the cancellation persist completely, cells after
// it persist nothing (no partial records), cancellation is never retried,
// and a resumed session executes exactly the missing cells.
func TestSessionCancelMidCampaign(t *testing.T) {
	cacheDir := t.TempDir()
	benches := []string{"gzip", "art", "treeadd", "mst", "em3d"}
	cfg := core.DefaultConfig()
	cfg.Name = "cancel-base"

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var started []string
	s1 := NewSession(Options{
		MaxInstr:   5_000,
		Scale:      workload.ScaleTest,
		Benchmarks: benches,
		Parallel:   1, // sequential: a deterministic success/failure split
		CacheDir:   cacheDir,
		Context:    ctx,
		PreRun: func(p *core.Processor, c core.Config, src workload.Source) {
			mu.Lock()
			started = append(started, src.Name())
			if len(started) == 3 {
				cancel() // mid-campaign: cell 3 is about to run
			}
			mu.Unlock()
		},
	})
	if s1.StoreErr() != nil {
		t.Fatal(s1.StoreErr())
	}
	res1, err := s1.RunAll(cfg)
	if err == nil {
		t.Fatal("cancelled campaign reported no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign error does not unwrap to context.Canceled: %v", err)
	}
	if len(res1) != 2 || len(s1.Failures()) != 3 {
		t.Fatalf("campaign: %d survivors, %d failures; want 2 and 3", len(res1), len(s1.Failures()))
	}
	// A cancelled cell must fail once, not burn the retry budget against a
	// context that stays cancelled.
	if snap := s1.Campaign().Snapshot(); snap.Retries != 0 {
		t.Errorf("cancellation was retried %d times", snap.Retries)
	}

	// Exactly the successful cells persisted, each record complete.
	ids, err := s1.store.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(res1) {
		t.Fatalf("store holds %d records, want %d (the successes)", len(ids), len(res1))
	}
	for _, id := range ids {
		rec, err := s1.store.Get(id)
		if err != nil || rec == nil {
			t.Fatalf("persisted record %s unreadable after cancellation: %v", id, err)
		}
		if rec.Stats.Committed == 0 {
			t.Errorf("persisted record %s is empty", id)
		}
	}

	// A fresh session over the same cache executes only the missing cells.
	succeeded := map[string]bool{}
	for name := range res1 {
		succeeded[name] = true
	}
	executed := map[string]bool{}
	s2 := NewSession(Options{
		MaxInstr:   5_000,
		Scale:      workload.ScaleTest,
		Benchmarks: benches,
		CacheDir:   cacheDir,
		Resume:     true,
		PreRun: func(p *core.Processor, c core.Config, src workload.Source) {
			mu.Lock()
			executed[src.Name()] = true
			mu.Unlock()
		},
	})
	res2, err := s2.RunAll(cfg)
	if err != nil {
		t.Fatalf("resumed campaign failed: %v", err)
	}
	if len(res2) != len(benches) {
		t.Fatalf("resumed campaign completed %d cells, want %d", len(res2), len(benches))
	}
	mu.Lock()
	for name := range executed {
		if succeeded[name] {
			t.Errorf("cached cell %s re-executed on resume", name)
		}
	}
	if want := len(benches) - len(res1); len(executed) != want {
		t.Errorf("resume executed %d cells (%v), want the %d cancelled ones", len(executed), executed, want)
	}
	mu.Unlock()
	if snap := s2.Campaign().Snapshot(); snap.CacheHits != 2 || snap.Executed != 3 || snap.Failed != 0 {
		t.Errorf("resume snapshot %+v; want 2 cached, 3 executed, 0 failed", snap)
	}
}

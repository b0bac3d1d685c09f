package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"sync"
	"testing"

	"largewindow/internal/core"
	"largewindow/internal/workload"
)

// TestSessionResumeAfterCrash is the cross-process resume acceptance
// test, with the "crash" played by seeded fault injection: campaign #1
// persists to a cache directory but two of its five cells die mid-flight
// (injected pipeline corruption — failures are never persisted).
// Campaign #2 is a brand-new session over the same directory with Resume
// on: it must serve the three finished cells from disk byte-identically
// — including every derived metric — and execute only the two missing
// ones. Campaign #3 over the now-complete cache executes nothing.
func TestSessionResumeAfterCrash(t *testing.T) {
	cacheDir := t.TempDir()
	benches := []string{"gzip", "art", "treeadd", "mst", "em3d"}
	crashed := map[string]bool{"mst": true, "em3d": true}
	cfg := core.DefaultConfig()
	cfg.Name = "debug-base"
	cfg.Debug = true

	sabotage := func(p *core.Processor, c core.Config, src workload.Source) {
		if !crashed[src.Name()] {
			return
		}
		// Step the machine until the injector finds a victim; the
		// harness's own run then carries the corruption into the checker.
		rng := rand.New(rand.NewSource(42))
		for cyc := int64(200); cyc <= 20_000; cyc += 200 {
			if _, err := p.Run(0, cyc); !errors.Is(err, core.ErrBudget) {
				return
			}
			if p.Inject(core.FaultIQCountSkew, rng) {
				return
			}
		}
	}

	// Campaign #1: two cells crash; only the three survivors persist.
	s1 := NewSession(Options{
		MaxInstr:   5_000,
		Scale:      workload.ScaleTest,
		Benchmarks: benches,
		CacheDir:   cacheDir,
		PreRun:     sabotage,
	})
	if s1.StoreErr() != nil {
		t.Fatal(s1.StoreErr())
	}
	res1, err := s1.RunAll(cfg)
	if err == nil {
		t.Fatal("sabotaged campaign reported no error")
	}
	if len(res1) != 3 || len(s1.Failures()) != 2 {
		t.Fatalf("campaign 1: %d survivors, %d failures; want 3 and 2", len(res1), len(s1.Failures()))
	}
	ids, err := s1.store.IDs()
	if err != nil || len(ids) != 3 {
		t.Fatalf("persisted %d records (%v), want 3", len(ids), err)
	}
	before := map[string][]byte{}
	for _, id := range ids {
		data, err := os.ReadFile(s1.store.Path(id))
		if err != nil {
			t.Fatal(err)
		}
		before[id] = data
	}

	// Campaign #2: fresh session (a new process in real life), resuming.
	var mu sync.Mutex
	executed := map[string]int{}
	s2 := NewSession(Options{
		MaxInstr:   5_000,
		Scale:      workload.ScaleTest,
		Benchmarks: benches,
		CacheDir:   cacheDir,
		Resume:     true,
		PreRun: func(p *core.Processor, c core.Config, src workload.Source) {
			mu.Lock()
			executed[src.Name()]++
			mu.Unlock()
		},
	})
	res2, err := s2.RunAll(cfg)
	if err != nil {
		t.Fatalf("resumed campaign failed: %v", err)
	}
	if len(res2) != 5 {
		t.Fatalf("resumed campaign completed %d cells, want 5", len(res2))
	}
	mu.Lock()
	for name, n := range executed {
		if !crashed[name] {
			t.Errorf("cached cell %s re-executed on resume (%d times)", name, n)
		}
	}
	if len(executed) != 2 {
		t.Errorf("resume executed %d distinct cells (%v), want the 2 crashed ones", len(executed), executed)
	}
	mu.Unlock()
	if snap := s2.Campaign().Snapshot(); snap.CacheHits != 3 || snap.Executed != 2 || snap.Failed != 0 {
		t.Errorf("resume snapshot %+v; want 3 cached, 2 executed, 0 failed", snap)
	}
	// Cache-served results must match what campaign #1 computed exactly,
	// derived metrics included — the tables a resumed campaign renders
	// are indistinguishable from the original's.
	for name, r1 := range res1 {
		r2 := res2[name]
		b1, err1 := json.Marshal(r1.Record)
		b2, err2 := json.Marshal(r2.Record)
		if err1 != nil || err2 != nil || !bytes.Equal(b1, b2) || r1.Suite != r2.Suite {
			t.Errorf("cell %s diverges after resume (%v, %v):\n  ran:    %s\n  cached: %s", name, err1, err2, b1, b2)
		}
		if r1.Stats.AvgMLP() != r2.Stats.AvgMLP() || r1.Stats.AvgROBOccupancy() != r2.Stats.AvgROBOccupancy() {
			t.Errorf("cell %s derived metrics diverge after resume", name)
		}
	}
	// And the cache files themselves are untouched: resume reads records,
	// it never rewrites them.
	for id, want := range before {
		got, err := os.ReadFile(s2.store.Path(id))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("cache entry %s rewritten by resume", id)
		}
	}

	// Campaign #3: complete cache, nothing may execute.
	s3 := NewSession(Options{
		MaxInstr:   5_000,
		Scale:      workload.ScaleTest,
		Benchmarks: benches,
		CacheDir:   cacheDir,
		Resume:     true,
		PreRun: func(p *core.Processor, c core.Config, src workload.Source) {
			t.Errorf("complete cache still executed %s", src.Name())
		},
	})
	if _, err := s3.RunAll(cfg); err != nil {
		t.Fatalf("fully cached campaign failed: %v", err)
	}
	if snap := s3.Campaign().Snapshot(); snap.Executed != 0 || snap.CacheHits != 5 {
		t.Errorf("complete-cache snapshot %+v; want 0 executed, 5 cached", snap)
	}
}

// TestSessionCacheDisabledGracefully: an unusable cache directory must
// not kill the session — it degrades to in-process memoization and
// reports why through StoreErr.
func TestSessionCacheDisabledGracefully(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "not-a-dir")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	s := NewSession(Options{
		MaxInstr:   5_000,
		Scale:      workload.ScaleTest,
		Benchmarks: []string{"treeadd"},
		CacheDir:   f.Name(), // a file, not a directory
	})
	if s.StoreErr() == nil {
		t.Error("file-as-cache-dir reported no error")
	}
	if s.store != nil {
		t.Error("unusable store not nil")
	}
	if _, err := s.RunAll(core.DefaultConfig()); err != nil {
		t.Errorf("session without store cannot run: %v", err)
	}
}

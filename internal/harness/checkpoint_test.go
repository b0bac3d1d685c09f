package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/workload"
)

// TestCheckpointCacheNeedsNoKnob: every session carries the shared
// checkpoint cache, so nothing has to ask for one. A session whose own
// options never skip — a fleet worker's — still shares one functional
// pass across the skip cells it is handed, and a cached campaign that
// never skips leaves no ckpt/ directory and no checkpoint accounting.
func TestCheckpointCacheNeedsNoKnob(t *testing.T) {
	worker := NewSession(Options{})
	for _, cfg := range []core.Config{core.DefaultConfig(), core.WIBDefault()} {
		cell := campaign.Cell{Config: cfg, Bench: "gzip", Scale: workload.ScaleTest,
			MaxInstr: 2_000, MaxCycles: 1_000_000, SkipInstr: 2_000}
		rec, err := worker.ExecCell(cell)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Stats.Skipped != 2_000 {
			t.Errorf("%s: skipped %d, want 2000", cfg.Name, rec.Stats.Skipped)
		}
	}
	if built, reused := worker.ckpts.Counts(); built != 1 || reused != 1 {
		t.Errorf("two configs over one skip window: %d built / %d reused, want 1 / 1", built, reused)
	}

	dir := t.TempDir()
	plain := NewSession(Options{MaxInstr: 2_000, Scale: workload.ScaleTest, Benchmarks: []string{"gzip"}, CacheDir: dir})
	if _, err := plain.RunAll(core.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt")); !os.IsNotExist(err) {
		t.Errorf("a campaign that never skips left a ckpt/ directory (stat err: %v)", err)
	}
	if sum := plain.Campaign().Snapshot().Summary(); strings.Contains(sum, "checkpoints:") {
		t.Errorf("summary of a skip-free campaign reports checkpoints: %s", sum)
	}

	skipping := NewSession(Options{MaxInstr: 2_000, SkipInstr: 2_000, Scale: workload.ScaleTest, Benchmarks: []string{"gzip"}, CacheDir: dir})
	if _, err := skipping.RunAll(core.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if sum := skipping.Campaign().Snapshot().Summary(); !strings.Contains(sum, "checkpoints: 1 built / 0 reused") {
		t.Errorf("summary of a skipping campaign: %s", sum)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "ckpt")); err != nil || len(entries) != 1 {
		t.Errorf("skipping campaign persisted %d checkpoints (err %v), want 1", len(entries), err)
	}
}

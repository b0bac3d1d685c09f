package campaign

import (
	"strings"
	"testing"
	"time"
)

// TestModelCounters exercises the model-pruned sweep accounting: the
// engine's AddModelPruned/AddModelAudited feed the snapshot, the summary
// line, and the progress line.
func TestModelCounters(t *testing.T) {
	eng := NewEngine(func(Cell) (*Record, error) { return &Record{}, nil }, Options{})
	eng.AddModelPruned(11)
	eng.AddModelAudited(2)
	eng.AddModelPruned(4)

	s := eng.Snapshot()
	if s.ModelPruned != 15 || s.ModelAudited != 2 {
		t.Fatalf("snapshot model counters = %d/%d, want 15/2", s.ModelPruned, s.ModelAudited)
	}
	if sum := s.Summary(); !strings.Contains(sum, "model: 15 pruned / 2 audited") {
		t.Errorf("summary %q missing model accounting", sum)
	}
	if line := s.progress(0).Line(); !strings.Contains(line, "model 15 pruned/2 audited") {
		t.Errorf("progress line %q missing model segment", line)
	}
}

// TestModelCountersAbsentWhenUnused keeps the default rendering clean: a
// campaign that never pruned must not mention the model at all.
func TestModelCountersAbsentWhenUnused(t *testing.T) {
	s := Snapshot{Total: 10, Done: 5, Executed: 5, Elapsed: time.Second}
	if sum := s.Summary(); strings.Contains(sum, "model") {
		t.Errorf("summary %q mentions model without pruning", sum)
	}
	if line := s.progress(10).Line(); strings.Contains(line, "model") {
		t.Errorf("progress line %q mentions model without pruning", line)
	}
}

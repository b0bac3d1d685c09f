package campaign

import (
	"strings"
	"testing"
	"time"
)

// TestModelCounters exercises the model-pruned sweep accounting a
// harness session adds to its snapshot: it reaches the summary line and
// the progress line. harness's TestExploreCountsReachTheSnapshot feeds it
// from a real exploration.
func TestModelCounters(t *testing.T) {
	s := Snapshot{Total: 2, Done: 1, Executed: 1, Elapsed: time.Second, ModelPruned: 15, ModelAudited: 2}
	if sum := s.Summary(); !strings.Contains(sum, "model: 15 pruned / 2 audited") {
		t.Errorf("summary %q missing model accounting", sum)
	}
	if line := s.Progress(0).Line(); !strings.Contains(line, "model 15 pruned/2 audited") {
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
	if line := s.Progress(10).Line(); strings.Contains(line, "model") {
		t.Errorf("progress line %q mentions model without pruning", line)
	}
}

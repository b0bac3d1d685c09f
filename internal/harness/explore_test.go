package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/model"
	"largewindow/internal/sample"
	"largewindow/internal/workload"
)

// TestExploreKeepsTwoCellsInFlight: a session hands the explorer's
// simulated cells to its engine a batch at a time, so its Parallel — not
// GOMAXPROCS — bounds how many run at once. Each cell waits (until a
// deadline shared by the pass) for the session's width of cells to start
// before it runs, so an explorer that submits fewer at a time is seen as
// a lower peak.
func TestExploreKeepsTwoCellsInFlight(t *testing.T) {
	for _, tc := range []struct{ procs, parallel int }{{0, 2}, {1, 2}, {2, 4}} {
		procs := "unchanged"
		if tc.procs > 0 {
			procs = fmt.Sprint(tc.procs)
		}
		t.Run(fmt.Sprintf("GOMAXPROCS=%s,Parallel=%d", procs, tc.parallel), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			want := int32(tc.parallel)
			var inFlight, peak atomic.Int32
			deadline := time.Now().Add(10 * time.Second)
			var s *Session
			s = NewSession(Options{
				MaxInstr:   10_000,
				Scale:      workload.ScaleTest,
				Benchmarks: []string{"gzip", "mst"},
				Parallel:   tc.parallel,
				Exec: func(cell campaign.Cell) (*campaign.Record, error) {
					n := inFlight.Add(1)
					defer inFlight.Add(-1)
					for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
					}
					for peak.Load() < want && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
					return s.ExecCell(cell, nil)
				},
			})
			rep, err := s.Explore(ExploreGrid(), ExploreOptions{TopK: 2, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := peak.Load(); got < want {
				t.Errorf("at most %d cells in flight over %d simulated cells; want %d", got, rep.Simulated, want)
			}
			if got := peak.Load(); got > want {
				t.Errorf("%d cells in flight on a %d-worker session", got, want)
			}
		})
	}
}

// TestExploreReportIndependentOfParallel: the session's width changes
// how many cells run at once, not the Report, and at no width does a pass
// build a program more than once to profile it and once per batch.
func TestExploreReportIndependentOfParallel(t *testing.T) {
	refs := []string{"mst", "em3d", "art", "gzip", "swim", "perimeter",
		"synth:mlp=4,miss=0.1,ws=4m,n=10000", "synth:mlp=1,miss=0.3,ws=1m,n=10000,seed=3"}
	for i, ref := range refs {
		refs[i] = "counting:" + ref
	}
	var first *model.Report
	for _, par := range []int{1, 2, 4} {
		total := countBuilds()
		s := NewSession(Options{Scale: workload.ScaleTest, MaxInstr: 10_000, Parallel: par, Benchmarks: refs})
		rep, err := s.Explore(ExploreGrid(), ExploreOptions{TopK: 2, AuditFrac: 0.1, Seed: 1})
		if err != nil {
			t.Fatalf("Parallel %d: %v", par, err)
		}
		if n, limit := total(), 3*len(refs); n > limit {
			t.Errorf("Parallel %d: %d builds over %d programs, want at most %d", par, n, len(refs), limit)
		}
		if first == nil {
			first = rep
		} else if !reflect.DeepEqual(rep, first) {
			t.Errorf("Parallel %d: report differs from Parallel 1's", par)
		}
	}
}

// TestCancelledExploreProfilesNothing: a session whose context is done
// explores nothing — it returns the context's error without profiling,
// so it builds no program.
func TestCancelledExploreProfilesNothing(t *testing.T) {
	total := countBuilds()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession(Options{Scale: workload.ScaleTest, MaxInstr: 5_000, Context: ctx, Benchmarks: []string{"counting:mst"}})
	if _, err := s.Explore(ExploreGrid(), ExploreOptions{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("Explore on a cancelled session: err = %v, want context.Canceled", err)
	}
	if n := total(); n != 0 {
		t.Errorf("Explore on a cancelled session built %d programs, want 0", n)
	}
}

// TestExploreRefusesSkipAndSampling: the model profiles each workload
// from its first instruction, so a session whose cells skip or sample
// would calibrate it on one region and predict another. Explore refuses
// such a session before it runs a cell.
func TestExploreRefusesSkipAndSampling(t *testing.T) {
	plan := sample.Plan{Intervals: 4, Length: 1_000}
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"skip", Options{SkipInstr: 20_000}},
		{"sample", Options{Sampling: &plan}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cells atomic.Int32
			opt := tc.opt
			opt.MaxInstr, opt.Scale, opt.Benchmarks = 20_000, workload.ScaleTest, []string{"mst", "em3d"}
			opt.Exec = func(campaign.Cell) (*campaign.Record, error) {
				cells.Add(1)
				return nil, errors.New("no cell should run")
			}
			rep, err := NewSession(opt).Explore(ExploreGrid(), ExploreOptions{Seed: 1})
			if err == nil || !strings.Contains(err.Error(), "skips or samples") {
				t.Errorf("Explore = %v, %v; want the skip/sample refusal", rep, err)
			}
			if n := cells.Load(); n != 0 {
				t.Errorf("%d cells ran", n)
			}
		})
	}
}

// TestExploreCountsReachTheSnapshot: the explorer's prune decision — the
// cells the model answered and the audit slice simulated anyway — is the
// session's to count: it reaches the session's snapshot, its summary and
// its progress line, and matches the Report.
func TestExploreCountsReachTheSnapshot(t *testing.T) {
	s := NewSession(Options{MaxInstr: 10_000, Scale: workload.ScaleTest, Benchmarks: []string{"gzip", "mst"}, Parallel: 2})
	rep, err := s.Explore(ExploreGrid(), ExploreOptions{TopK: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if rep.Pruned == 0 || snap.ModelPruned != uint64(rep.Pruned) || snap.ModelAudited != uint64(rep.Audited) {
		t.Fatalf("snapshot model counts %d pruned / %d audited, report %d / %d", snap.ModelPruned, snap.ModelAudited, rep.Pruned, rep.Audited)
	}
	want := fmt.Sprintf("model: %d pruned / %d audited", rep.Pruned, rep.Audited)
	if sum := snap.Summary(); !strings.Contains(sum, want) {
		t.Errorf("summary %q lacks %q", sum, want)
	}
	want = fmt.Sprintf("model %d pruned/%d audited", rep.Pruned, rep.Audited)
	if line := snap.Progress(0).Line(); !strings.Contains(line, want) {
		t.Errorf("progress line %q lacks %q", line, want)
	}
}

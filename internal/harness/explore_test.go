package harness

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/sample"
	"largewindow/internal/workload"
)

// TestExploreKeepsTwoCellsInFlight: a session with Parallel 2 hands the
// explorer's simulated cells to its engine two at a time. Each cell waits
// (up to a bound) for a second one to start before it runs, so an
// explorer that submits one cell at a time is seen as a peak of one.
func TestExploreKeepsTwoCellsInFlight(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the explorer fans out at GOMAXPROCS, which is 1")
	}
	var inFlight, peak atomic.Int32
	var s *Session
	s = NewSession(Options{
		MaxInstr:   10_000,
		Scale:      workload.ScaleTest,
		Benchmarks: []string{"gzip", "mst"},
		Parallel:   2,
		Exec: func(cell campaign.Cell) (*campaign.Record, error) {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			for deadline := time.Now().Add(5 * time.Second); peak.Load() < 2 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			return s.ExecCell(cell)
		},
	})
	rep, err := s.Explore(ExploreGrid(), ExploreOptions{TopK: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got < 2 {
		t.Errorf("at most %d cell in flight over %d simulated cells; want 2", got, rep.Simulated)
	}
	if got := peak.Load(); got > 2 {
		t.Errorf("%d cells in flight on a 2-worker session", got)
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

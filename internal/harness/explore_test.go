package harness

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"largewindow/internal/campaign"
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

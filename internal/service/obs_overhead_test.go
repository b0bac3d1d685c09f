// Overhead proof for the fleet-observability layer, mirroring
// internal/telemetry/overhead_test.go: the same client→coordinator→
// worker sweep runs with observability fully off (nil bus, nil span
// log) and fully on (events + spans + a draining subscriber), and the
// difference must stay inside an absolute per-cell budget — plus an
// allocation-level proof that the disabled publish and span hooks are
// free.
package service

import (
	"context"
	"io"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/obs"
)

// sweepCells is the size of one sweep.
const sweepCells = 48

// sweepOnce runs a small service sweep and returns how long its cells
// took, fleet start-up and teardown left out.
func sweepOnce(tb testing.TB, observed bool) time.Duration {
	opt := CoordinatorOptions{LeaseTTL: time.Second}
	var bus *obs.Bus
	if observed {
		bus = obs.NewBus()
		opt.Events = bus
		opt.Spans = obs.NewSpanLog(io.Discard)
		opt.ProgressInterval = 10 * time.Millisecond
	}
	coord := NewCoordinator(opt)
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var sub *obs.Subscriber
	if observed {
		// A live subscriber that drains, so the fan-out path actually
		// delivers instead of short-circuiting on an empty set.
		sub = bus.Subscribe(0)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range sub.Events() {
			}
		}()
		defer func() {
			bus.Unsubscribe(sub)
			<-done
		}()
	}

	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	w := NewWorker(WorkerOptions{
		Server:   srv.URL,
		ID:       "bench-w",
		Exec:     fakeExec,
		PollWait: 5 * time.Millisecond, // bounds the idle poll the sweep's end waits out
		Metrics:  &WorkerMetrics{},
	})
	go func() {
		defer close(workerDone)
		w.Run(ctx)
	}()

	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 200 * time.Millisecond})
	start := time.Now()
	for i := 0; i < sweepCells; i++ {
		cell := testCell(16+i, "gzip")
		if _, err := client.Exec(cell); err != nil {
			tb.Fatalf("exec: %v", err)
		}
	}
	elapsed := time.Since(start)
	cancel()
	<-workerDone
	if got := coord.Stats().Completed; got != sweepCells {
		tb.Fatalf("sweep completed %d of %d cells", got, sweepCells)
	}
	return elapsed
}

func BenchmarkServiceObsOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweepOnce(b, false)
	}
}

func BenchmarkServiceObsOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweepOnce(b, true)
	}
}

// obsBudgetPerCell is what full observability (event bus with a draining
// subscriber, span log, 10 ms progress ticks, worker spans riding the
// completions) may add to one cell. Ten runs on a shared 2-core host read
// 11 to 46 µs, a cell's whole trip is ~700 µs, and a hook that costs
// 200 µs more per cell reads 265 to 314, so the budget trips on a hook
// that grew a round trip, a lock convoy or a per-event encode, not on a
// loaded host.
const obsBudgetPerCell = 100 * time.Microsecond

// obsOverheadPerCell estimates what observability adds to one cell: the
// median, over rounds, of an observed sweep's time minus an unobserved
// sweep's run right beside it, per cell. Pairing cancels the host's
// speed drift, which moves whole sweeps by more than the budget, and the
// median sheds the rounds a noisy neighbour hit on one side only. Which
// side goes first alternates, so a drift within a round cancels too.
func obsOverheadPerCell(tb testing.TB, rounds int) time.Duration {
	diffs := make([]time.Duration, rounds)
	for i := range diffs {
		if i%2 == 0 {
			on := sweepOnce(tb, true)
			diffs[i] = on - sweepOnce(tb, false)
		} else {
			off := sweepOnce(tb, false)
			diffs[i] = sweepOnce(tb, true) - off
		}
	}
	slices.Sort(diffs)
	return diffs[rounds/2] / sweepCells
}

// TestDisabledObsOverhead is the overhead gate run by scripts/check.sh,
// stated as an absolute cost per cell. A ratio of the two sides would
// move with the cost of the sweep itself — it read anywhere from -10% to
// +43% as the protocol got faster while the hooks cost the same.
func TestDisabledObsOverhead(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing budget skipped in -short mode and under the race detector")
	}
	const rounds = 81
	perCell := obsOverheadPerCell(t, rounds)
	t.Logf("observability overhead %v per cell (median of %d paired sweeps; budget %v)", perCell, rounds, obsBudgetPerCell)
	if perCell > obsBudgetPerCell {
		t.Errorf("observability costs %v per cell, budget %v — a hook got expensive", perCell, obsBudgetPerCell)
	}
}

// TestDisabledObsZeroAlloc pins the disabled hooks at zero allocations:
// with no bus and no span log attached, publishing an event or
// recording a span must cost one untaken branch, nothing more.
func TestDisabledObsZeroAlloc(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second})
	defer c.Close()
	sc := &svcCell{id: "cell", inflight: &inflight{cell: &campaign.Cell{Bench: "gzip"}}}
	start := time.Now()

	if n := testing.AllocsPerRun(1000, func() {
		c.publish(obs.Event{Type: obs.EventHeartbeat, CellID: sc.id})
	}); n != 0 {
		t.Errorf("disabled publish allocates %.1f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.span(obs.SpanQueued, sc, start, start, "")
	}); n != 0 {
		t.Errorf("disabled span hook allocates %.1f objects per call, want 0", n)
	}
	var nilLog *obs.SpanLog
	if n := testing.AllocsPerRun(1000, func() {
		nilLog.Record(obs.Span{})
	}); n != 0 {
		t.Errorf("nil SpanLog.Record allocates %.1f objects per call, want 0", n)
	}
	var nilBus *obs.Bus
	if n := testing.AllocsPerRun(1000, func() {
		nilBus.Publish(obs.Event{})
	}); n != 0 {
		t.Errorf("nil Bus.Publish allocates %.1f objects per call, want 0", n)
	}
}

// Layer benchmark and allocation gate for one cell's trip through the
// fleet, the way internal/core gates its cells: BenchmarkFleetCell is
// the thing to profile (EXPERIMENTS.md, "profiling the fleet"),
// TestFleetCellAllocBudget keeps the allocation count from creeping back.
package service

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/obs"
)

// startFleetCellRig is the benchmark's fleet-run workload cut down to one
// closed loop: a coordinator over a store with a subscribed event bus
// behind httptest, one no-op worker, one client. exec runs the i-th
// distinct cell through it.
func startFleetCellRig(tb testing.TB) (exec func(i int)) {
	store, err := campaign.NewStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	bus := obs.NewBus()
	coord := NewCoordinator(CoordinatorOptions{Store: store, Events: bus, QueueCap: 1 << 16})
	srv := httptest.NewServer(coord.Handler())
	sub := bus.Subscribe(0)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub.Events() {
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	w := NewWorker(WorkerOptions{Server: srv.URL, ID: "bench-w", Exec: fakeExec, PollWait: 50 * time.Millisecond})
	go func() {
		defer close(workerDone)
		w.Run(ctx)
	}()
	tb.Cleanup(func() {
		cancel()
		<-workerDone
		bus.Unsubscribe(sub)
		<-drained
		srv.Close()
		coord.Close()
	})
	client := NewClient(ClientOptions{Server: srv.URL})
	return func(i int) {
		cell := testCell(32, "gzip")
		cell.MaxInstr = uint64(1000 + i) // the budget makes the identity unique
		if _, err := client.Exec(cell); err != nil {
			tb.Fatalf("cell %d: %v", i, err)
		}
	}
}

// fleetCellWarmup opens the connections and pays for the store's first
// shard directories before anything is counted.
const fleetCellWarmup = 300

func BenchmarkFleetCell(b *testing.B) {
	exec := startFleetCellRig(b)
	for i := 0; i < fleetCellWarmup; i++ {
		exec(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec(fleetCellWarmup + i)
	}
}

// fleetCellAllocBudget bounds the heap allocations one cell costs the
// whole fleet — client, coordinator and worker share the process, so
// every side counts. Measured 420 (go1.24; 472 under the race detector,
// which check.sh runs this package with; 661 before the two-round-trip
// protocol). The headroom covers a Go release's drift in net/http, not a
// third request per cell (+110).
const fleetCellAllocBudget = 500

func TestFleetCellAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a few hundred cells through a store")
	}
	exec := startFleetCellRig(t)
	for i := 0; i < fleetCellWarmup; i++ {
		exec(i)
	}
	const cells = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cells; i++ {
		exec(fleetCellWarmup + i)
	}
	runtime.ReadMemStats(&after)
	perCell := float64(after.Mallocs-before.Mallocs) / cells
	t.Logf("%.0f allocations per cell (budget %d)", perCell, fleetCellAllocBudget)
	if perCell > fleetCellAllocBudget {
		t.Errorf("a cell costs %.0f allocations, budget %d", perCell, fleetCellAllocBudget)
	}
}

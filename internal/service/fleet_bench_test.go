// Layer benchmark and memory gates for one cell's trip through the
// fleet, the way internal/core gates its cells: BenchmarkFleetCell is
// the thing to profile (EXPERIMENTS.md, "profiling the fleet"),
// TestFleetCellAllocBudget keeps the allocation count from creeping back
// and TestFleetCellRetainedHeap keeps a finished cell's footprint small.
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
// every side counts. Measured 395 (go1.24; 457 under the race detector,
// which check.sh runs this package with; 420 before request and response
// bodies were encoded into and decoded from recycled buffers, 661 before
// the two-round-trip protocol). The headroom covers the race detector and
// a Go release's drift in net/http, not a third request per cell (+110).
const fleetCellAllocBudget = 500

// fleetCellByteBudget bounds the bytes those allocations take, which set
// how often the collector runs now that a finished cell leaves little
// live heap behind (EXPERIMENTS.md, "Profiling the fleet"). Measured
// 38,100 (go1.24; 55,400 with fresh body buffers and copies of the
// cell and the record). Under the race detector, whose own allocations
// would count, only the allocation count is checked.
const fleetCellByteBudget = 42_000

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
	bytesPerCell := float64(after.TotalAlloc-before.TotalAlloc) / cells
	t.Logf("%.0f allocations, %.0f B per cell (budgets %d, %d)", perCell, bytesPerCell,
		fleetCellAllocBudget, fleetCellByteBudget)
	if perCell > fleetCellAllocBudget {
		t.Errorf("a cell costs %.0f allocations, budget %d", perCell, fleetCellAllocBudget)
	}
	if bytesPerCell > fleetCellByteBudget && !raceEnabled {
		t.Errorf("a cell allocates %.0f B, budget %d", bytesPerCell, fleetCellByteBudget)
	}
}

// fleetCellRetainedBudget bounds the live heap a finished cell keeps in
// the coordinator: its ID, verdict and attempt count, and the cell
// table's entry that deduplication needs. The record is the store's to
// keep (DESIGN.md §10.6).
const fleetCellRetainedBudget = 300

func TestFleetCellRetainedHeap(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs a few thousand cells through a store; the race detector's shadow heap is not the program's")
	}
	exec := startFleetCellRig(t)
	for i := 0; i < fleetCellWarmup; i++ {
		exec(i)
	}
	const cells = 3000
	before := liveHeap()
	for i := 0; i < cells; i++ {
		exec(fleetCellWarmup + i)
	}
	perCell := float64(int64(liveHeap())-int64(before)) / cells
	t.Logf("%.0f B of live heap per finished cell (budget %d)", perCell, fleetCellRetainedBudget)
	if perCell > fleetCellRetainedBudget {
		t.Errorf("a finished cell keeps %.0f B of heap, budget %d", perCell, fleetCellRetainedBudget)
	}
}

// liveHeap is the heap still reachable after a collection. The second
// collection empties what sync.Pools kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

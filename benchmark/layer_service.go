package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/obs"
)

// layeredFleet runs the fleet workload with a span around every
// Client.Exec, one track per client, then probes submission, queue
// memory, drain, the event bus and the metrics exposition.
func layeredFleet(e *env, lc *layerCtx) error {
	dir, err := e.tempDir()
	if err != nil {
		return err
	}
	f, err := startWarmFleet(e, dir)
	if err != nil {
		return err
	}
	defer f.stop()
	// Like the untraced run, one batch first without spans: it pays for
	// the store's first writes, which is not tracing overhead.
	if _, err := f.batch(e.sz.fleetBatch, nil); err != nil {
		return err
	}
	t0 := time.Now()
	out, err := f.batch(e.sz.fleetBatch, func(client int, cell campaign.Cell, exec func() error) error {
		id := lc.tr.begin(root(client), "service", "Client.Exec", cell.String())
		defer lc.tr.end(id)
		return exec()
	})
	if err != nil {
		return err
	}
	lc.cellsWall = time.Since(t0).Seconds()
	lc.cells = out.cells
	lat := sortedCopy(out.lat)
	lc.m.set("service.exec_ms_p50", quantile(lat, 0.5), len(lat))
	lc.m.set("service.exec_ms_p99", quantile(lat, 0.99), len(lat))
	lc.m.set("service.exec_ms_p999", quantile(lat, 0.999), len(lat))
	st := f.coord.Stats()
	lc.m.set("service.completed", float64(st.Completed), 1)
	lc.m.set("service.requeued", float64(st.Requeues), 1)
	lc.m.set("service.retried", float64(st.Retries), 1)
	lc.m.set("obs.dropped_frac", ratio(float64(f.bus.Dropped()), float64(f.bus.Published())), int(f.bus.Published()))
	for _, msg := range f.verifyStore() {
		lc.failf("%s", msg)
	}

	const writes = 100
	id := lc.tr.begin(root(0), "obs", "WriteMetrics", "")
	for i := 0; i < writes && err == nil; i++ {
		err = obs.WriteMetrics(io.Discard, f.coord.Registry())
	}
	lc.m.set("obs.write_metrics_us", lc.tr.end(id)*1e6/writes, writes)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	secs := lc.tr.call(root(0), "service", "Coordinator.Drain", "", func() { err = f.coord.Drain(ctx) })
	lc.m.set("service.drain_ms", secs*1e3, 1)
	if err != nil {
		return err
	}
	return lc.run(serviceSubmit(e), obsPublish(false), obsPublish(true))
}

// serviceSubmit submits cells to a coordinator no worker is attached to:
// what a submission costs, and what a queued cell holds on the heap.
func serviceSubmit(e *env) probe {
	return func(lc *layerCtx) error {
		dir, err := e.tempDir()
		if err != nil {
			return err
		}
		f, err := startFleet(e, dir, 0)
		if err != nil {
			return err
		}
		defer f.stop()
		n := e.sz.fleetBatch * 5 / 2
		cells := make([]campaign.Cell, n)
		for i := range cells {
			cells[i] = fleetCell(i)
		}
		heap := func() float64 {
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return float64(m.HeapInuse)
		}
		before := heap()
		id := lc.tr.begin(root(0), "service", "Client.Submit", fmt.Sprintf("%d cells", n))
		const chunk = 500
		for lo := 0; lo < n && err == nil; lo += chunk {
			_, err = f.clients[0].Submit(cells[lo:min(lo+chunk, n)])
		}
		secs := lc.tr.end(id)
		if err != nil {
			return err
		}
		lc.m.set("service.submit_us_per_cell", secs*1e6/float64(n), n)
		lc.m.set("service.heap_mb_per_10k_queued", (heap()-before)/(1<<20)*1e4/float64(n), n)
		if depth := f.coord.Stats().QueueDepth; depth != n {
			lc.failf("coordinator queued %d of %d submitted cells", depth, n)
		}
		return nil
	}
}

// obsPublish times Bus.Publish with one subscriber: one that drains, or
// (slow) one that never reads, so every delivery past its buffer drops.
func obsPublish(slow bool) probe {
	return func(lc *layerCtx) error {
		const n = 200_000
		bus := obs.NewBus()
		sub := bus.Subscribe(0)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if slow {
				return
			}
			for range sub.Events() {
			}
		}()
		name := "obs.publish_ns"
		if slow {
			name = "obs.publish_ns_slow_sub"
		}
		id := lc.tr.begin(root(0), "obs", "Bus.Publish", name)
		for i := 0; i < n; i++ {
			bus.Publish(obs.Event{Type: obs.EventHeartbeat, CellID: "probe"})
		}
		lc.m.set(name, lc.tr.end(id)*1e9/n, n)
		bus.Unsubscribe(sub)
		<-done
		return nil
	}
}

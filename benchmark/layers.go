package main

import (
	"fmt"
	"runtime"
)

// layerCtx is the state of one layered run: the spans recorded around
// calls into each package, the per-layer metrics derived from them and
// from the probes, and the simulated outcomes the run must share with
// the untraced run of the same invocation.
type layerCtx struct {
	tr       *tracer
	m        metricSet
	untraced *timing
	cells    []cellResult
	failures []string
	// cellsWall is the wall-clock the layered run spent on the workload's
	// own cells (not the probes): what the untraced pass is compared with.
	cellsWall float64
}

// probe measures one layer through its public functions and records the
// layer's metrics. Each layer_*.go file holds the probes of one package.
type probe func(lc *layerCtx) error

// run executes probes in order, stopping at the first that cannot run.
func (lc *layerCtx) run(probes ...probe) error {
	for _, p := range probes {
		if err := p(lc); err != nil {
			return err
		}
	}
	return nil
}

func (lc *layerCtx) failf(format string, args ...any) {
	lc.failures = append(lc.failures, fmt.Sprintf(format, args...))
}

// crossCheck compares every cell the layered run produced with the
// untraced run's outcome for the same cell: tracing must not change a
// simulated result. It returns the number of cells compared.
func (lc *layerCtx) crossCheck(untraced map[string]string) int {
	for _, c := range lc.cells {
		want, ok := untraced[c.Cell]
		if !ok {
			lc.failf("%s: layered run produced a cell the untraced run did not", c.Cell)
		} else if got := c.tuple(); got != want {
			lc.failf("%s: layered run gave %s, untraced run %s", c.Cell, got, want)
		}
	}
	return len(lc.cells)
}

// hostSnap is the host-side state the host.* metrics difference.
type hostSnap struct {
	mem runtime.MemStats
	cpu float64
}

func readHost() hostSnap {
	var h hostSnap
	runtime.ReadMemStats(&h.mem)
	h.cpu = cpuSeconds()
	return h
}

// hostMetrics records the host layer over the layered run, and the
// tracing overhead: the layered run's wall-clock over the same cells
// against the untraced pass.
func (lc *layerCtx) hostMetrics(h0 hostSnap) {
	h1 := readHost()
	lc.m.set("host.cpu_s", h1.cpu-h0.cpu, 1)
	lc.m.set("host.gc_pause_ms", float64(h1.mem.PauseTotalNs-h0.mem.PauseTotalNs)/1e6, int(h1.mem.NumGC-h0.mem.NumGC))
	lc.m.set("host.gc_cycles", float64(h1.mem.NumGC-h0.mem.NumGC), 1)
	lc.m.set("host.alloc_mb", float64(h1.mem.TotalAlloc-h0.mem.TotalAlloc)/(1<<20), 1)
	lc.m.set("host.trace_overhead_frac", ratio(lc.cellsWall, lc.untraced.passSeconds(false))-1, 1)
}

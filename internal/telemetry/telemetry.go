// Package telemetry is the simulator's observability layer: counters,
// gauges, and histograms registered by name in a Registry, a
// cycle-interval Sampler that writes a JSONL time series (see DESIGN.md
// "Observability" for the schema), and renderers that turn archived
// per-instruction lifecycle records into Chrome trace-event JSON and a
// Kanata-style pipeline view.
//
// A counter or a gauge is a function over a field its owner keeps anyway,
// read at sample time: the package holds no count of its own, so a series
// cannot diverge from the report the same field feeds, and a run with
// telemetry off pays nothing for them. Only what has no field to read is
// a probe in the instrumented code, behind one nil check of its collector
// pointer: the sampler's Tick and CatchUp, and Histogram.Observe. The
// histogram is plain (non-atomic) because the cycle-level core is
// single-threaded; one Collector must not be shared across concurrently
// running processors.
package telemetry

import (
	"fmt"
	"sort"
)

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// bounds in ascending order; one implicit overflow bucket catches values
// beyond the last bound.
type Histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
}

// newHistogram builds a histogram with the given ascending upper bounds.
func newHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// snapshot copies the histogram state for a sample record.
func (h *Histogram) snapshot() HistSnapshot {
	return HistSnapshot{
		Bounds: h.bounds,
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
	}
}

// Registry holds the named metrics of one simulation run. Names are
// dotted paths ("core.commit.instrs", "mem.l1d.miss_ratio"); registration
// order is preserved in sample output for stable, diffable streams.
type Registry struct {
	names      []string
	counterFns map[string]func() uint64
	gauges     map[string]func(cycle int64) float64
	hists      map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counterFns: make(map[string]func() uint64),
		gauges:     make(map[string]func(int64) float64),
		hists:      make(map[string]*Histogram),
	}
}

func (r *Registry) record(name string) {
	r.names = append(r.names, name)
}

// CounterFunc registers a counter: fn is read at sample time and must be
// monotonically non-decreasing (interval deltas are derived from it). The
// count itself is the owner's (a Stats field, a cache's traffic counters,
// a coordinator's atomics), so publishing it counts nothing twice.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if _, ok := r.counterFns[name]; !ok {
		r.record(name)
	}
	r.counterFns[name] = fn
}

// Gauge registers an instantaneous value read at sample time; fn receives
// the sample cycle so occupancy-style gauges can age out stale state.
func (r *Registry) Gauge(name string, fn func(cycle int64) float64) {
	if _, ok := r.gauges[name]; !ok {
		r.record(name)
	}
	r.gauges[name] = fn
}

// Histogram registers (or returns the existing) histogram under name.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := newHistogram(bounds...)
	r.hists[name] = h
	r.record(name)
	return h
}

// MetricKind discriminates the flavors of an exported Point.
type MetricKind int

const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// Point is the exported point-in-time value of one registered metric,
// the read surface exposition formats (internal/obs's Prometheus text
// endpoint) are built on. Exactly one of Counter, Gauge, or Hist is
// meaningful, selected by Kind.
type Point struct {
	Name    string
	Kind    MetricKind
	Counter uint64
	Gauge   float64
	Hist    HistSnapshot
}

// Points snapshots every registered metric in registration order. Gauge
// functions receive cycle (pass 0 for wall-clock services that have no
// cycle domain). Counters are read through their functions, so registries
// whose counters are backed by atomics are safe to snapshot concurrently
// with the code updating them; Histograms share the single-threaded
// ownership contract documented on the package.
func (r *Registry) Points(cycle int64) []Point {
	out := make([]Point, 0, len(r.names))
	for _, name := range r.names {
		if fn, ok := r.counterFns[name]; ok {
			out = append(out, Point{Name: name, Kind: KindCounter, Counter: fn()})
			continue
		}
		if fn, ok := r.gauges[name]; ok {
			out = append(out, Point{Name: name, Kind: KindGauge, Gauge: fn(cycle)})
			continue
		}
		if h, ok := r.hists[name]; ok {
			out = append(out, Point{Name: name, Kind: KindHistogram, Hist: h.snapshot()})
		}
	}
	return out
}

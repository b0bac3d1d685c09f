package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"math"

	"largewindow/internal/schema"
)

// DefaultSampleInterval is the sampling period (in cycles) used when a
// collector is built with a non-positive interval.
const DefaultSampleInterval = 1000

// Sample is one record of the JSONL time series. Counters are cumulative
// since the start of the run; Deltas are the same counters' increments
// since the previous sample (interval rates divide by Interval); Gauges
// are instantaneous values read at Cycle. Histograms are cumulative
// distributions, included only once they have observations.
type Sample struct {
	Cycle    int64                   `json:"cycle"`
	Interval int64                   `json:"interval"`
	Counters map[string]uint64       `json:"counters,omitempty"`
	Deltas   map[string]uint64       `json:"deltas,omitempty"`
	Gauges   map[string]float64      `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"hists,omitempty"`
}

// HistSnapshot is the serialized form of a Histogram: Counts[i] holds
// observations ≤ Bounds[i], with one trailing overflow bucket.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Collector couples a Registry to an interval sampler writing JSONL. The
// instrumented core calls Tick once per simulated cycle; a sample is
// emitted every interval cycles and a final one at Close.
type Collector struct {
	reg       *Registry
	interval  int64
	bw        *bufio.Writer
	enc       *json.Encoder
	prev      map[string]uint64
	lastCycle int64
	next      int64
	err       error
}

// NewCollector builds a collector sampling every interval cycles into w.
// A non-positive interval selects DefaultSampleInterval. The stream opens
// with a schema-version header line; ReadSamples validates and skips it.
func NewCollector(w io.Writer, interval int64) *Collector {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	bw := bufio.NewWriter(w)
	c := &Collector{
		reg:      NewRegistry(),
		interval: interval,
		bw:       bw,
		enc:      json.NewEncoder(bw),
		prev:     make(map[string]uint64),
		next:     interval,
	}
	if err := c.enc.Encode(schema.Header{
		SchemaVersion: schema.TelemetryVersion,
		Kind:          "telemetry-samples",
	}); err != nil {
		c.err = err
	}
	return c
}

// Registry returns the collector's metric registry.
func (c *Collector) Registry() *Registry { return c.reg }

// Tick emits a sample when cycle reaches the next sampling point. It is
// the per-cycle hook and does nothing between sampling points.
func (c *Collector) Tick(cycle int64) {
	if cycle < c.next {
		return
	}
	c.sample(cycle)
}

// sample emits one record at the given cycle and schedules the next
// sampling point. Non-finite gauge values (NaN/Inf, e.g. ratios of an
// idle structure) are dropped from the record so it stays valid JSON.
func (c *Collector) sample(cycle int64) {
	s := Sample{
		Cycle:    cycle,
		Interval: cycle - c.lastCycle,
		Counters: make(map[string]uint64),
		Deltas:   make(map[string]uint64),
		Gauges:   make(map[string]float64),
	}
	for _, name := range c.reg.names {
		if fn, ok := c.reg.counterFns[name]; ok {
			v := fn()
			s.Counters[name] = v
			s.Deltas[name] = v - c.prev[name]
			c.prev[name] = v
			continue
		}
		if fn, ok := c.reg.gauges[name]; ok {
			if v := fn(cycle); !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Gauges[name] = v
			}
			continue
		}
		if h, ok := c.reg.hists[name]; ok && h.n > 0 {
			if s.Hists == nil {
				s.Hists = make(map[string]HistSnapshot)
			}
			s.Hists[name] = h.snapshot()
		}
	}
	if err := c.enc.Encode(&s); err != nil && c.err == nil {
		c.err = err
	}
	c.lastCycle = cycle
	c.next = cycle + c.interval
}

// CatchUp advances the sampler across a cycle range the caller fast-
// forwarded through, emitting exactly the samples consecutive per-cycle
// Ticks would have produced: one at each sampling point ≤ upto. Gauges
// are read at emission time, which matches per-cycle ticking only when
// the instrumented state is provably constant over the skipped range —
// the core's idle-cycle fast-forward guarantees that.
func (c *Collector) CatchUp(upto int64) {
	for c.next <= upto {
		c.sample(c.next)
	}
}

// Close emits a final sample at endCycle (when the run advanced past the
// last sampling point) and flushes the stream. It returns the first error
// seen while writing.
func (c *Collector) Close(endCycle int64) error {
	if endCycle > c.lastCycle {
		c.sample(endCycle)
	}
	if err := c.bw.Flush(); err != nil && c.err == nil {
		c.err = err
	}
	return c.err
}

// ReadSamples parses a JSONL sample stream, returning every record. It is
// the validation path used by `wibtrace -render` and the smoke tests; a
// malformed line fails with its line number.
func ReadSamples(r io.Reader) ([]Sample, error) {
	return schema.ReadJSONL[Sample](r, schema.TelemetryVersion, "telemetry stream")
}

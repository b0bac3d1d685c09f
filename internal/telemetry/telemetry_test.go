package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestCounterAndRegistryIdempotence(t *testing.T) {
	r := NewRegistry()
	var v uint64
	r.CounterFunc("a.b", func() uint64 { return 0 })
	r.CounterFunc("a.b", func() uint64 { return v })
	v = 5
	if pts := r.Points(0); len(pts) != 1 || pts[0].Counter != 5 {
		t.Fatalf("points = %+v, want one counter reading 5 through the later function", pts)
	}
	if n := len(r.names); n != 1 {
		t.Fatalf("duplicate registration recorded: names = %v", r.names)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram(2, 8, 32)
	for _, v := range []float64{1, 2, 3, 8, 9, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 1} // ≤2:{1,2} ≤8:{3,8} ≤32:{9} over:{100}
	for i, w := range want {
		if h.counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, h.counts[i], w, h.counts)
		}
	}
	if h.n != 6 || h.sum != 123 {
		t.Fatalf("count = %d, sum = %v, want 6 and 123", h.n, h.sum)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted bounds")
		}
	}()
	newHistogram(4, 2)
}

func TestCollectorSamplesAndDeltas(t *testing.T) {
	var buf bytes.Buffer
	col := NewCollector(&buf, 100)
	reg := col.Registry()
	var commits uint64
	reg.CounterFunc("core.commit", func() uint64 { return commits })
	reg.CounterFunc("mem.accesses", func() uint64 { return 3 * commits })
	occupancy := 7.0
	reg.Gauge("core.rob", func(int64) float64 { return occupancy })
	reg.Gauge("bad.ratio", func(int64) float64 { return math.NaN() })
	h := reg.Histogram("lat", 10, 100)

	for cyc := int64(1); cyc <= 250; cyc++ {
		if cyc%2 == 0 {
			commits++
		}
		col.Tick(cyc)
	}
	h.Observe(42)
	if err := col.Close(250); err != nil {
		t.Fatalf("close: %v", err)
	}

	samples, err := ReadSamples(&buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(samples) != 3 { // cycles 100, 200, final 250
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	s0, s1, s2 := samples[0], samples[1], samples[2]
	if s0.Cycle != 100 || s1.Cycle != 200 || s2.Cycle != 250 {
		t.Fatalf("sample cycles = %d,%d,%d", s0.Cycle, s1.Cycle, s2.Cycle)
	}
	if s0.Counters["core.commit"] != 50 || s1.Counters["core.commit"] != 100 {
		t.Fatalf("cumulative counters wrong: %v %v", s0.Counters, s1.Counters)
	}
	if s1.Deltas["core.commit"] != 50 || s1.Interval != 100 {
		t.Fatalf("delta = %d interval = %d, want 50/100", s1.Deltas["core.commit"], s1.Interval)
	}
	if s1.Deltas["mem.accesses"] != 150 {
		t.Fatalf("counter-func delta = %d, want 150", s1.Deltas["mem.accesses"])
	}
	if s0.Gauges["core.rob"] != 7 {
		t.Fatalf("gauge = %v", s0.Gauges["core.rob"])
	}
	if _, ok := s0.Gauges["bad.ratio"]; ok {
		t.Fatal("NaN gauge leaked into sample")
	}
	if _, ok := s0.Hists["lat"]; ok {
		t.Fatal("empty histogram emitted")
	}
	hs, ok := s2.Hists["lat"]
	if !ok || hs.Count != 1 || hs.Counts[1] != 1 {
		t.Fatalf("final histogram snapshot wrong: %+v ok=%v", hs, ok)
	}
}

func TestCollectorDefaultInterval(t *testing.T) {
	col := NewCollector(&bytes.Buffer{}, 0)
	if col.interval != DefaultSampleInterval {
		t.Fatalf("interval = %d, want %d", col.interval, DefaultSampleInterval)
	}
}

func TestReadSamplesRejectsGarbage(t *testing.T) {
	_, err := ReadSamples(strings.NewReader("{\"cycle\":1}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 parse error, got %v", err)
	}
}

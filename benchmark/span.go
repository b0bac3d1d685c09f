package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"largewindow/internal/telemetry"
)

// span is one timed call into a layer, recorded from outside the layer.
// Parent is the index of the span that caused it, negative for a root;
// spans of one cell share its label.
type span struct {
	Name    string
	Layer   string
	Cell    string
	StartNS int64
	EndNS   int64
	Parent  int
	Track   int // display row: a root's own, inherited by its descendants
}

// root is the parent to pass for a span nothing caused, shown on the
// given track (concurrent clients take one track each).
func root(track int) int { return -1 - track }

// tracer keeps spans in memory until the layered run ends. It is safe
// for the fleet's concurrent clients.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (see root) and returns its index.
func (t *tracer) begin(parent int, layer, name, cell string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	track := -1 - parent
	if parent >= 0 {
		track = t.spans[parent].Track
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Cell: cell, StartNS: now, Parent: parent, Track: track})
	return len(t.spans) - 1
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = now
	return float64(now-t.spans[id].StartNS) / 1e9
}

// call runs fn under a span and returns its duration in seconds.
func (t *tracer) call(parent int, layer, name, cell string, fn func()) float64 {
	id := t.begin(parent, layer, name, cell)
	fn()
	return t.end(id)
}

// layerStat is a layer's share of the layered run.
type layerStat struct {
	Layer string
	Spans int
	Self  float64 // seconds: its spans minus the part their children cover
}

// selfTimes attributes every span's duration, minus the union of its
// children's intervals, to the span's layer.
func (t *tracer) selfTimes() []layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byLayer := map[string]*layerStat{}
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].StartNS < t.spans[kids[b]].StartNS })
		covered, until := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(t.spans[k].StartNS, until), min(t.spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				until = hi
			}
		}
		st := byLayer[s.Layer]
		if st == nil {
			st = &layerStat{Layer: s.Layer}
			byLayer[s.Layer] = st
		}
		st.Spans++
		st.Self += float64(s.EndNS-s.StartNS-covered) / 1e9
	}
	out := make([]layerStat, 0, len(byLayer))
	for _, st := range byLayer {
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Layer < out[b].Layer })
	return out
}

// write stores the spans as Chrome-trace JSON (chrome://tracing,
// Perfetto) at <dir>/<workload>.trace.json, through the writer the fleet
// traces already use: one row per track, spans nested by containment.
func (t *tracer) write(dir, workload string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]telemetry.FleetSpan, len(t.spans))
	for i, s := range t.spans {
		spans[i] = telemetry.FleetSpan{
			Track: workload, Lane: fmt.Sprintf("track %d", s.Track),
			Name: s.Name, Cat: s.Layer, StartUS: s.StartNS / 1e3, EndUS: s.EndNS / 1e3,
		}
		if s.Cell != "" {
			spans[i].Args = map[string]interface{}{"cell": s.Cell}
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := telemetry.WriteChromeSpans(&buf, spans); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

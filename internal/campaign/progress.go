package campaign

import (
	"io"
	"sync"
	"time"

	"largewindow/internal/obs"
)

// Progress repaints the campaign's one-line status (obs.Progress.Line)
// in place from the engine's counters: cells done/total, aggregate
// simulated-instruction throughput, and an ETA extrapolated from per-cell
// wall time. It belongs on a terminal stderr (the CLI auto-disables it
// when stderr is piped).
type Progress struct {
	eng      *Engine
	w        io.Writer
	interval time.Duration
	expected uint64 // manifest size, when known ahead of submission

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewProgress starts a progress renderer repainting every interval
// (<=0: 500ms). expected is the manifest size when known up front (the
// engine's own total only counts cells submitted so far); 0 falls back
// to the engine total. Call Stop to erase the line and halt.
func NewProgress(eng *Engine, w io.Writer, interval time.Duration, expected uint64) *Progress {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	p := &Progress{eng: eng, w: w, interval: interval, expected: expected, stop: make(chan struct{})}
	p.wg.Add(1)
	go p.loop()
	return p
}

func (p *Progress) loop() {
	defer p.wg.Done()
	tick := time.NewTicker(p.interval)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			obs.Repaint(p.w, p.Line())
		}
	}
}

// Line renders the current status line.
func (p *Progress) Line() string {
	return p.eng.Snapshot().progress(p.expected).Line()
}

// Stop halts the renderer and erases the in-place line.
func (p *Progress) Stop() {
	close(p.stop)
	p.wg.Wait()
	obs.Repaint(p.w, "")
}

// progress converts the snapshot to the status obs.Progress.Line renders,
// its ETA by obs.Progress.ETA's rule. expected is the manifest size when
// known ahead of submission (0: the engine's total so far). The engine's
// Done counts every finished cell, where obs.Progress counts a failed one
// apart from Done; Snapshot reads Failed first, so a failure finishing
// between the two reads is in Failed alone and Done must not go below 0.
func (s Snapshot) progress(expected uint64) *obs.Progress {
	p := &obs.Progress{Submitted: max(s.Total, expected), Done: s.Done - min(s.Failed, s.Done), Failed: s.Failed,
		CacheHits: s.CacheHits, Retries: s.Retries, Instrs: s.Instrs, ElapsedSec: s.Elapsed.Seconds(),
		InstrsPerSec:  obs.SaneRate(float64(s.Instrs), s.Elapsed.Seconds()),
		IntervalsDone: s.IntervalsDone, IntervalsPlanned: s.IntervalsPlanned,
		ModelPruned: s.ModelPruned, ModelAudited: s.ModelAudited, CkptBuilt: s.CkptBuilt, CkptReused: s.CkptReused}
	p.ETASec = p.ETA(0)
	return p
}

package campaign

import (
	"fmt"
	"io"
	"sync"
	"time"

	"largewindow/internal/obs"
)

// Progress renders a live one-line campaign status fed by the engine's
// telemetry counters: cells done/total, aggregate simulated-instruction
// throughput, and an ETA extrapolated from per-cell wall time. It
// repaints in place with a carriage return, so it belongs on a terminal
// stderr (the CLI auto-disables it when stderr is piped).
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
			fmt.Fprintf(p.w, "\r\x1b[K%s", p.Line())
		}
	}
}

// Line renders the current status line.
func (p *Progress) Line() string {
	return renderLine(p.eng.Snapshot(), p.expected)
}

// renderLine formats one snapshot as the progress line. It must render
// sanely for every snapshot shape the engine can produce — campaign
// start (nothing done, zero elapsed), all-cache-hit sweeps (zero
// executed), zero counters — so every derived figure is guarded: rates
// never show NaN/Inf/negative and degenerate ETAs are omitted.
func renderLine(s Snapshot, expected uint64) string {
	total := s.Total
	if expected > total {
		total = expected
	}
	rate := obs.SaneRate(float64(s.Instrs), s.Elapsed.Seconds())
	line := fmt.Sprintf("campaign %d/%d cells", s.Done, total)
	if s.CacheHits > 0 {
		line += fmt.Sprintf(" (%d cached)", s.CacheHits)
	}
	if s.Retries > 0 {
		line += fmt.Sprintf(" (%d retried)", s.Retries)
	}
	if s.Failed > 0 {
		line += fmt.Sprintf(" (%d FAILED)", s.Failed)
	}
	if s.CkptBuilt+s.CkptReused > 0 {
		line += fmt.Sprintf(" · ckpt %d built/%d reused", s.CkptBuilt, s.CkptReused)
	}
	if s.ModelPruned > 0 {
		line += fmt.Sprintf(" · model %d pruned/%d audited", s.ModelPruned, s.ModelAudited)
	}
	if s.IntervalsPlanned > 0 {
		// Sampled campaign: committed instructions cover only the measured
		// windows, so an instrs/s figure would wildly understate real
		// progress. Show measured-interval progress instead.
		line += fmt.Sprintf(" · interval %d/%d", s.IntervalsDone, s.IntervalsPlanned)
	} else {
		line += fmt.Sprintf(" · %s instrs/s", SIFormat(rate))
	}
	if eta, ok := renderETA(s, total); ok {
		line += " · ETA " + eta
	}
	return line
}

// renderETA extrapolates remaining wall time from executed cells only —
// cache hits are free and must not skew the per-cell cost estimate. ok
// is false whenever no sane estimate exists: nothing finished yet,
// nothing left, an all-cache-hit sweep, zero elapsed time, or an
// extrapolation too large to be worth printing.
func renderETA(s Snapshot, total uint64) (string, bool) {
	finished := s.Done
	if finished == 0 || finished >= total || s.Executed == 0 || s.Elapsed <= 0 {
		return "", false
	}
	perCell := s.Elapsed / time.Duration(s.Executed)
	remain := perCell * time.Duration(total-finished)
	if remain < 0 || remain > time.Hour*99 {
		return "", false
	}
	return fmtDuration(remain), true
}

// Stop halts the renderer and erases the in-place line.
func (p *Progress) Stop() {
	close(p.stop)
	p.wg.Wait()
	fmt.Fprintf(p.w, "\r\x1b[K")
}

// SIFormat renders a rate with an SI suffix (2.1M, 764k).
func SIFormat(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

func fmtDuration(d time.Duration) string {
	d = d.Round(time.Second)
	m, s := int(d.Minutes()), int(d.Seconds())%60
	if m >= 60 {
		return fmt.Sprintf("%d:%02d:%02d", m/60, m%60, s)
	}
	return fmt.Sprintf("%d:%02d", m, s)
}

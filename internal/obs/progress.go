package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Progress is a campaign's progress at one moment: what a status line
// needs to render "cells done, instrs/s, ETA". The coordinator
// broadcasts the fleet's on the event stream; a local session's
// snapshot converts to one; Line renders either.
type Progress struct {
	Submitted    uint64  `json:"submitted"`
	Done         uint64  `json:"done"`   // finished with a record, store and cache hits included
	Failed       uint64  `json:"failed"` // finished without one
	Running      int     `json:"running"`
	QueueDepth   int     `json:"queue_depth"`
	CacheHits    uint64  `json:"cache_hits"`
	Retries      uint64  `json:"retries"`
	Requeues     uint64  `json:"requeues"`
	Instrs       uint64  `json:"instrs"`
	InstrsPerSec float64 `json:"instrs_per_sec"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	// ETASec is the extrapolated seconds to completion (ETA's rule);
	// negative means unknown.
	ETASec float64 `json:"eta_sec"`

	// Sampled-campaign interval progress: measured intervals done and
	// planned, summed by InFlight over the sampled cells in flight — the
	// fleet's leases by their heartbeats, a local session's cells by their
	// reports. Zero outside sampled sweeps.
	IntervalsDone    uint64 `json:"intervals_done,omitempty"`
	IntervalsPlanned uint64 `json:"intervals_planned,omitempty"`

	// Model-pruned sweep accounting: cells the interval model answered in
	// place of detailed simulation, and the audit subset simulated anyway
	// to measure live model error. Zero outside pruned sweeps.
	ModelPruned  uint64 `json:"model_pruned,omitempty"`
	ModelAudited uint64 `json:"model_audited,omitempty"`

	// Checkpoint-cache activity: functional fast-forward passes run and
	// checkpoint requests served from cache. Only a local session has
	// one cache to count; zero on the fleet's stream.
	CkptBuilt  uint64 `json:"ckpt_built,omitempty"`
	CkptReused uint64 `json:"ckpt_reused,omitempty"`
}

// ETA is the one rule for a campaign's seconds to completion: the cells
// left times the wall time per executed cell. Store and cache hits finish
// without executing, so they are free; counted as executed, they would
// price a resumed campaign's remaining cells at almost nothing. credit is
// the done/planned fraction of cells in flight where it is known (a
// sampled cell 30/100 intervals in adds 0.3): it counts as executed and
// comes off what is left, so long-cell ETAs do not sawtooth between
// completions. ETA returns -1 (unknown) when no sane estimate exists:
// nothing executed, nothing left, zero or negative elapsed time, or an
// extrapolation above 99 hours.
func (p *Progress) ETA(credit float64) float64 {
	finished := p.Done + p.Failed
	if finished >= p.Submitted || p.ElapsedSec <= 0 {
		return -1
	}
	executed := float64(finished-min(p.CacheHits, finished)) + credit
	left := float64(p.Submitted-finished) - credit
	if executed <= 0 || left <= 0 {
		return -1
	}
	eta := p.ElapsedSec / executed * left
	if math.IsNaN(eta) || eta > 99*3600 {
		return -1
	}
	return eta
}

// InFlight sums the interval progress of the sampled cells in flight:
// their measured intervals done and planned, and the cells' worth of
// credit they add to ETA (a cell 30/100 intervals in adds 0.3, one past
// its plan adds 1). The credit is summed in 2^-32ths of a cell: integer
// addition commutes, so the order the cells are added in cannot show.
type InFlight struct {
	Done, Planned uint64
	credit        uint64
}

// Add counts one cell done of planned intervals in; a cell that has not
// announced its plan (planned 0) adds nothing.
func (f *InFlight) Add(done, planned uint64) {
	if planned > 0 {
		f.Done, f.Planned = f.Done+done, f.Planned+planned
		f.credit += min(done, planned) << 32 / planned
	}
}

// Credit is the summed fraction, in cells.
func (f InFlight) Credit() float64 { return float64(f.credit) / (1 << 32) }

// Line renders p as the campaign's one-line status, the line the local
// session's terminal progress and `experiments -watch` both repaint. Every
// snapshot shape renders sanely — campaign start, all-hit sweeps, zero
// counters, a skewed clock — because the figures arrive guarded: the rate
// is SaneRate's and an unknown ETA, negative, is left out.
func (p *Progress) Line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %d/%d cells", p.Done+p.Failed, p.Submitted)
	if p.CacheHits > 0 {
		fmt.Fprintf(&b, " (%d cached)", p.CacheHits)
	}
	if p.Retries > 0 {
		fmt.Fprintf(&b, " (%d retried)", p.Retries)
	}
	if p.Failed > 0 {
		fmt.Fprintf(&b, " (%d FAILED)", p.Failed)
	}
	if p.Running > 0 || p.QueueDepth > 0 {
		fmt.Fprintf(&b, " · %d running, queue %d", p.Running, p.QueueDepth)
	}
	if p.CkptBuilt+p.CkptReused > 0 {
		fmt.Fprintf(&b, " · ckpt %d built/%d reused", p.CkptBuilt, p.CkptReused)
	}
	if p.ModelPruned > 0 {
		fmt.Fprintf(&b, " · model %d pruned/%d audited", p.ModelPruned, p.ModelAudited)
	}
	if p.IntervalsPlanned > 0 {
		// Sampled campaign: committed instructions cover only the measured
		// windows, so an instrs/s figure would wildly understate real
		// progress. Show measured-interval progress instead.
		fmt.Fprintf(&b, " · interval %d/%d", p.IntervalsDone, p.IntervalsPlanned)
	} else {
		fmt.Fprintf(&b, " · %s instrs/s", siFormat(p.InstrsPerSec))
	}
	if p.ETASec >= 0 {
		b.WriteString(" · ETA " + clock(time.Duration(p.ETASec*float64(time.Second))))
	}
	return b.String()
}

// Repaint redraws a terminal's status line in place: carriage return,
// erase to the end of the line, then line ("" only erases).
func Repaint(w io.Writer, line string) {
	fmt.Fprintf(w, "\r\x1b[K%s", line)
}

// siFormat renders a rate with an SI suffix (2.1M, 764k).
func siFormat(v float64) string {
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

// clock renders a duration to the second as m:ss, or h:mm:ss from an
// hour up.
func clock(d time.Duration) string {
	d = d.Round(time.Second)
	m, s := int(d.Minutes()), int(d.Seconds())%60
	if m >= 60 {
		return fmt.Sprintf("%d:%02d:%02d", m/60, m%60, s)
	}
	return fmt.Sprintf("%d:%02d", m, s)
}

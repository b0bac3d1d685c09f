package core

import (
	"fmt"
	"io"

	"largewindow/internal/isa"
)

// InstrTrace is the recorded lifecycle of one dynamic instruction: the
// cycle it passed each pipeline milestone, plus every trip it made into
// the WIB. Squashed instructions are archived too (Squashed=true), which
// makes wrong-path behaviour visible.
type InstrTrace struct {
	Seq       uint64
	PC        uint64
	Instr     isa.Instr
	Fetched   int64
	Dispatch  int64
	Issued    int64 // last issue (re-issues overwrite)
	Completed int64
	Committed int64
	Parks     []int64 // cycles the instruction entered the WIB
	Reinserts []int64 // cycles it was reinserted into an issue queue
	Squashed  bool
	SquashCyc int64
}

// tracer records instruction lifecycles into a bounded ring. It is
// attached to a Processor via Config.TraceCapacity. Records cycle through
// a freelist: dispatch takes a pooled entry, archive deep-copies it into
// the ring (whose slots own their Parks/Reinserts backing arrays) and
// returns it to the pool, so a steady-state traced run stops allocating
// once the pool warms up.
type tracer struct {
	active map[uint64]*InstrTrace // by seq, in flight
	done   []InstrTrace           // archive ring
	next   int
	filled bool
	pool   []*InstrTrace // freelist of recycled records
}

func newTracer(capacity int) *tracer {
	return &tracer{
		active: make(map[uint64]*InstrTrace),
		done:   make([]InstrTrace, capacity),
	}
}

// alloc takes a record from the pool (or mints one), with per-trip slices
// emptied but their backing arrays retained.
func (tr *tracer) alloc() *InstrTrace {
	if n := len(tr.pool); n > 0 {
		t := tr.pool[n-1]
		tr.pool = tr.pool[:n-1]
		return t
	}
	return &InstrTrace{}
}

func (tr *tracer) dispatch(e *robEntry, fetched int64, now int64) {
	t := tr.alloc()
	parks, reins := t.Parks[:0], t.Reinserts[:0]
	*t = InstrTrace{
		Seq: e.seq, PC: e.pc, Instr: e.in, Fetched: fetched, Dispatch: now,
		Parks: parks, Reinserts: reins,
	}
	tr.active[e.seq] = t
}

// trace applies f to e's lifecycle record, with the current cycle, when
// tracing is enabled. Call sites pass a capture-free literal, so the
// disabled path costs the nil test alone.
func (p *Processor) trace(e *robEntry, f func(t *InstrTrace, now int64)) {
	if p.tracer != nil {
		if t, ok := p.tracer.active[e.seq]; ok {
			f(t, p.now)
		}
	}
}

func (tr *tracer) archive(seq uint64) {
	t, ok := tr.active[seq]
	if !ok {
		return
	}
	delete(tr.active, seq)
	// Deep-copy into the ring slot, reusing the slot's own slice storage:
	// the pooled record's Parks/Reinserts arrays go back to the pool with
	// it, so ring entries and pooled entries never share backing.
	d := &tr.done[tr.next]
	parks, reins := d.Parks[:0], d.Reinserts[:0]
	*d = *t
	d.Parks = append(parks, t.Parks...)
	d.Reinserts = append(reins, t.Reinserts...)
	tr.pool = append(tr.pool, t)
	tr.next++
	if tr.next == len(tr.done) {
		tr.next = 0
		tr.filled = true
	}
}

// traceIssued and traceCompleted stamp the two milestones more than one
// pipeline path reaches.
func (p *Processor) traceIssued(e *robEntry) {
	p.trace(e, func(t *InstrTrace, now int64) { t.Issued = now })
}

func (p *Processor) traceCompleted(e *robEntry) {
	p.trace(e, func(t *InstrTrace, now int64) { t.Completed = now })
}

// Traces returns the archived instruction lifecycles, oldest first.
func (tr *tracer) traces() []InstrTrace {
	if !tr.filled {
		return append([]InstrTrace(nil), tr.done[:tr.next]...)
	}
	out := make([]InstrTrace, 0, len(tr.done))
	out = append(out, tr.done[tr.next:]...)
	out = append(out, tr.done[:tr.next]...)
	return out
}

// Traces returns the archived lifecycle records (oldest first) when
// tracing was enabled via Config.TraceCapacity.
func (p *Processor) Traces() []InstrTrace {
	if p.tracer == nil {
		return nil
	}
	return p.tracer.traces()
}

// WriteTimeline renders archived traces as a per-instruction timeline.
func WriteTimeline(w io.Writer, traces []InstrTrace) {
	fmt.Fprintf(w, "%-8s %-6s %-24s %8s %8s %8s %8s %8s %-s\n",
		"seq", "pc", "instruction", "fetch", "disp", "issue", "done", "commit", "wib")
	for i := range traces {
		t := &traces[i]
		status := ""
		if t.Squashed {
			status = fmt.Sprintf(" SQUASHED@%d", t.SquashCyc)
		}
		wib := ""
		if len(t.Parks) > 0 {
			wib = fmt.Sprintf("parks=%v reinserts=%v", t.Parks, t.Reinserts)
		}
		fmt.Fprintf(w, "%-8d %-6d %-24s %8d %8d %8d %8d %8d %s%s\n",
			t.Seq, t.PC, t.Instr.String(), t.Fetched, t.Dispatch, t.Issued,
			t.Completed, t.Committed, wib, status)
	}
}

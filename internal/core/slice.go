package core

import "largewindow/internal/isa"

// This file implements the paper's §6 future-work idea: "executing the
// instructions from the WIB on a separate execution core". When
// WIBConfig.SliceWidth > 0, a slice core picks up to SliceWidth eligible
// non-memory instructions per cycle (oldest first) and executes them
// directly, without routing them through the main core's dispatch and
// issue stages. Memory operations and branches still reinsert into the
// issue queues: they need the load/store queues and the recovery
// machinery. Eligible instructions whose operands are not ready yet stay
// in the pool; an operand that waits on another outstanding miss sends
// the instruction back into that miss's bit-vector, exactly as on the
// main core.

// sliceComputable reports whether the slice core can execute the class.
func sliceComputable(c isa.Class) bool {
	switch c {
	case isa.ClassIntALU, isa.ClassIntMult, isa.ClassFPAdd,
		isa.ClassFPMult, isa.ClassFPDiv, isa.ClassFPSqrt:
		return true
	default:
		return false
	}
}

// sliceProcess is the slice-mode replacement for plain reinsertion: it
// drains the program-order eligible heap, executing computable rows on
// the slice core (up to SliceWidth) and reinserting the rest into the
// issue queues (up to dispatchSlots). It returns the number of dispatch
// slots consumed.
func (w *wib) sliceProcess(p *Processor, dispatchSlots int) int {
	width := w.cfg.SliceWidth
	usedDispatch := 0
	executed := 0
	putBack := w.putBackScratch[:0]
	budget := width + dispatchSlots + 8
	for budget > 0 && w.elig.Len() > 0 && (executed < width || usedDispatch < dispatchSlots) {
		budget--
		row := w.elig.Peek()
		e := p.liveEntry(row.rob, row.seq)
		if e == nil || e.stage != stEligible {
			w.elig.Pop()
			continue
		}
		if sliceComputable(e.class) {
			if executed >= width {
				// Slice core saturated this cycle; leave the row for the
				// next one. Nothing younger may bypass it onto the slice
				// core, but reinsertable rows behind it may still proceed.
				w.elig.Pop()
				putBack = append(putBack, row)
				continue
			}
			switch p.sliceTryExecute(row.rob, e) {
			case sliceRan:
				w.elig.Pop()
				w.unpark()
				executed++
				p.stats.SliceExecuted++
			case sliceReparked:
				w.elig.Pop()
			case sliceNotReady:
				w.elig.Pop()
				putBack = append(putBack, row)
			}
			continue
		}
		// Memory op or branch: back into the issue queue.
		if usedDispatch >= dispatchSlots {
			w.elig.Pop()
			putBack = append(putBack, row)
			continue
		}
		ins, blocked := w.tryReinsertRow(p, row)
		w.elig.Pop()
		if ins {
			usedDispatch++
		} else if blocked {
			putBack = append(putBack, row)
		}
	}
	for _, r := range putBack {
		w.elig.Append(r)
	}
	if len(putBack) > 0 {
		// Restore heap order after the bulk re-push.
		w.elig.Init()
	}
	w.putBackScratch = putBack[:0]
	return usedDispatch
}

type sliceOutcome int

const (
	sliceRan      sliceOutcome = iota
	sliceNotReady              // operands pending; stays eligible
	sliceReparked              // moved into another miss's bit-vector
)

// sliceTryExecute runs one eligible instruction on the slice core if its
// operands are ready.
func (p *Processor) sliceTryExecute(rob int32, e *robEntry) sliceOutcome {
	s1 := e.src1Phys == noReg || p.pr(e.src1FP, e.src1Phys).ready
	s2 := e.src2Phys == noReg || p.pr(e.src2FP, e.src2Phys).ready
	if s1 && s2 {
		// Clear the (now pointless) wait bit so consumers use the ready
		// path, mirroring reinsertion semantics.
		if e.newPhys != noReg {
			p.pr(e.destFP, e.newPhys).clearWait()
		}
		e.stage = stIssued
		p.traceIssued(e)
		// The slice core executes at the latency of the class's functional
		// unit, without occupying one.
		p.events.schedule(event{
			cycle: p.now + p.fus.pools[unitOf(e.class)].lat,
			kind:  evExecDone,
			rob:   rob,
			seq:   e.seq,
		})
		return sliceRan
	}
	// If an operand waits on another outstanding miss, follow it into
	// that bit-vector; otherwise stay eligible until the producer runs.
	if col, ok := p.waitColumn(e); ok && p.wib.blockAvailable(col) {
		p.wib.unpark()             // leaving the eligible pool...
		p.wib.park(p, rob, e, col) // ...and parking again (re-counts occupancy)
		return sliceReparked
	}
	return sliceNotReady
}

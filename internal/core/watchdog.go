package core

import "fmt"

// The forward-progress watchdog: Run tracks the last cycle on which an
// instruction committed; when a non-empty machine goes DeadlockCycles
// without committing, the run aborts with a structured deadlock report
// naming the oldest stalled active-list entry and the resource it is
// waiting on. A deadlock is always a simulator bug (the pipeline has
// anti-livelock rules), so the report favours diagnosability over cost.

// defaultDeadlockCycles is the watchdog interval when Config leaves
// DeadlockCycles at zero.
const defaultDeadlockCycles = 1_000_000

// deadlockError builds the watchdog's structured report.
func (p *Processor) deadlockError(lastProgress int64) *SimError {
	se := p.newSimError(KindDeadlock,
		0, fmt.Sprintf("no commit progress since cycle %d (rob=%d, fetchPC=%d)",
			lastProgress, p.robCount, p.fetchPC))
	se.base = ErrDeadlock
	if p.robCount > 0 {
		h := &p.rob[p.robHead]
		se.Seq = h.seq
		se.PC = h.pc
		se.Stall = &StallInfo{
			ROB:    p.robHead,
			Seq:    h.seq,
			PC:     h.pc,
			Instr:  h.in.String(),
			Stage:  stageNames[h.stage],
			Reason: p.stallReason(h),
		}
		se.Msg = fmt.Sprintf("%s; head seq %d pc %d (%s) %s: %s",
			se.Msg, h.seq, h.pc, h.in.String(), stageNames[h.stage], se.Stall.Reason)
	} else {
		se.Stall = &StallInfo{Reason: p.fetchStallReason()}
		se.Msg += "; " + se.Stall.Reason
	}
	return se
}

// stallReason explains what the active-list head is waiting on, in terms
// of the machine's resources.
func (p *Processor) stallReason(e *robEntry) string {
	switch e.stage {
	case stWaiting:
		return "waiting in issue queue on " + p.pendingOperands(e)
	case stRequest:
		if h, _ := p.queueOf(e).membership(p.robHead); h != noHold {
			return "load held for " + holdNames[h] + " (no wake-up came)"
		}
		return "requesting issue (select never grants: " + p.pendingOperands(e) + ")"
	case stInWIB:
		if e.wibCol >= 0 && int(e.wibCol) < len(p.wib.cols) {
			c := &p.wib.cols[e.wibCol]
			if !c.active {
				return fmt.Sprintf("parked in WIB column %d which is INACTIVE (lost wakeup)", e.wibCol)
			}
			return fmt.Sprintf("parked in WIB column %d awaiting load seq %d", e.wibCol, c.loadSeq)
		}
		return "parked in WIB with no column (lost wakeup)"
	case stEligible:
		q := p.queueOf(e)
		return fmt.Sprintf("WIB-eligible awaiting reinsertion (queue %d/%d)", q.count, q.size)
	case stIssued:
		if e.sq != noReg && e.awaitData {
			return fmt.Sprintf("issued store awaiting data operand %s", p.regState(e.src2FP, e.src2Phys))
		}
		if e.lq != noReg {
			if cyc, ok := p.pendingEventFor(e.seq); ok {
				return fmt.Sprintf("issued load awaiting memory completion at cycle %d", cyc)
			}
			return "issued load with NO pending completion event (lost MSHR wakeup)"
		}
		if cyc, ok := p.pendingEventFor(e.seq); ok {
			return fmt.Sprintf("executing, completion scheduled for cycle %d", cyc)
		}
		return "issued with no pending completion event (lost wakeup)"
	case stDone:
		return "completed but not committed (commit stage blocked)"
	default:
		return "unknown stage"
	}
}

// pendingOperands names the source registers that still block the entry.
func (p *Processor) pendingOperands(e *robEntry) string {
	out := ""
	for _, s := range [2]struct {
		fp  bool
		idx int32
	}{{e.src1FP, e.src1Phys}, {e.src2FP, e.src2Phys}} {
		if s.idx == noReg || p.operandSatisfied(s.fp, s.idx) {
			continue
		}
		if out != "" {
			out += ", "
		}
		out += p.regState(s.fp, s.idx)
	}
	if out == "" {
		return "no unsatisfied operand (select starvation)"
	}
	return out
}

// regState renders one physical register's synchronization state.
func (p *Processor) regState(fp bool, idx int32) string {
	r := p.pr(fp, idx)
	tag := "p"
	if fp {
		tag = "fp"
	}
	return fmt.Sprintf("%s%d(ready=%v wait=%v col=%d)", tag, idx, r.ready, r.wait, r.col)
}

// pendingEventFor reports whether a completion event is scheduled for the
// instruction (diagnostic path only; O(events)).
func (p *Processor) pendingEventFor(seq uint64) (int64, bool) {
	for _, ev := range p.events.pending() {
		if ev.seq == seq {
			return ev.cycle, true
		}
	}
	return 0, false
}

// fetchStallReason explains an empty-machine stall (nothing in flight and
// nothing committing: the front end itself is stuck).
func (p *Processor) fetchStallReason() string {
	return fmt.Sprintf("active list empty; fetchPC=%d fetchStall=%d halted-path=%v ifq=%d",
		p.fetchPC, p.fetchStall, p.fetchHalted, p.ifqN)
}

package core

import "math/rand"

// Fault injection: deterministic, seeded corruptions of microarchitectural
// state, used by the internal/fault campaign to prove that the invariant
// checker, the lockstep oracle, and the forward-progress watchdog detect
// real bugs within a bounded number of cycles and produce usable crash
// dumps. Injection lives in the core because the corrupted structures are
// unexported; policy (when to inject, what to assert) lives in
// internal/fault.

// FaultKind names one seeded microarchitectural corruption.
type FaultKind string

// Injectable faults and the detector expected to catch each.
const (
	// FaultRegReadyFlip clears the ready bit of a produced register that
	// an in-flight issue-queue entry sources: the consumer re-registers as
	// waiting and is never woken. Detector: forward-progress watchdog.
	FaultRegReadyFlip FaultKind = "reg-ready-flip"
	// FaultRegValueCorrupt flips bits in the result of a completed but
	// uncommitted instruction. Detector: lockstep oracle at its commit.
	FaultRegValueCorrupt FaultKind = "reg-value-corrupt"
	// FaultRegDoubleFree pushes a register that is already on the free
	// list onto it again. Detector: checkRegSpace (Config.Debug).
	FaultRegDoubleFree FaultKind = "reg-double-free"
	// FaultWIBColumnLeak deactivates a live bit-vector column without
	// returning it to the free list, orphaning its parked rows. Detector:
	// column-accounting invariant (Config.Debug), or the wib-bad-column
	// structural check when the owning load completes first.
	FaultWIBColumnLeak FaultKind = "wib-column-leak"
	// FaultWIBOccupancySkew increments the WIB occupancy counter.
	// Detector: occupancy invariant (Config.Debug).
	FaultWIBOccupancySkew FaultKind = "wib-occupancy-skew"
	// FaultMSHRDropWakeup deletes a pending load-completion event: the
	// load stays issued forever. Detector: forward-progress watchdog,
	// naming the load and its missing completion.
	FaultMSHRDropWakeup FaultKind = "mshr-drop-wakeup"
	// FaultIQCountSkew increments the integer issue queue's occupancy
	// counter. Detector: issue-queue invariant (Config.Debug).
	FaultIQCountSkew FaultKind = "iq-count-skew"
	// FaultLSQCountSkew increments the load queue's occupancy counter.
	// Detector: LSQ invariant (Config.Debug).
	FaultLSQCountSkew FaultKind = "lsq-count-skew"
)

// AllFaultKinds returns every injectable fault, campaign order.
func AllFaultKinds() []FaultKind {
	return []FaultKind{
		FaultRegReadyFlip, FaultRegValueCorrupt, FaultRegDoubleFree,
		FaultWIBColumnLeak, FaultWIBOccupancySkew, FaultMSHRDropWakeup,
		FaultIQCountSkew, FaultLSQCountSkew,
	}
}

// Inject applies one corruption to the machine's current state, choosing
// the victim with rng. It reports false when the fault is not applicable
// right now (e.g. no active bit-vector to leak); callers step the machine
// and retry. Injection is only meaningful between cycles (between Run
// calls bounded by maxCycles).
func (p *Processor) Inject(k FaultKind, rng *rand.Rand) bool {
	ok := false
	switch k {
	case FaultRegReadyFlip:
		ok = p.injectReadyFlip(rng)
	case FaultRegValueCorrupt:
		ok = p.injectValueCorrupt(rng)
	case FaultRegDoubleFree:
		ok = p.injectDoubleFree(rng)
	case FaultWIBColumnLeak:
		ok = p.injectColumnLeak(rng)
	case FaultWIBOccupancySkew:
		if p.wib != nil && p.wib.occupancy > 0 {
			p.wib.occupancy++
			ok = true
		}
	case FaultMSHRDropWakeup:
		ok = p.injectDropWakeup(rng)
	case FaultIQCountSkew:
		if p.intIQ.count > 0 {
			p.intIQ.count++
			ok = true
		}
	case FaultLSQCountSkew:
		if p.lsq.lqCount > 0 {
			p.lsq.lqCount++
			ok = true
		}
	}
	if ok {
		p.note("inject:"+string(k), 0, 0)
	}
	return ok
}

// inflight collects live ROB indices satisfying keep, oldest first.
func (p *Processor) inflight(keep func(*robEntry) bool) []int32 {
	var out []int32
	size := int32(len(p.rob))
	for i := int32(0); i < p.robCount; i++ {
		idx := (p.robHead + i) % size
		if keep(&p.rob[idx]) {
			out = append(out, idx)
		}
	}
	return out
}

// injectReadyFlip clears the ready bit of a register sourced by a queued
// entry. The victim operand must currently be truly ready (not
// pretend-ready), so the consumer will re-register as a waiter that no
// writeback ever wakes.
func (p *Processor) injectReadyFlip(rng *rand.Rand) bool {
	cands := p.inflight(func(e *robEntry) bool {
		if e.stage != stWaiting && e.stage != stRequest {
			return false
		}
		for _, s := range [2]struct {
			fp  bool
			idx int32
		}{{e.src1FP, e.src1Phys}, {e.src2FP, e.src2Phys}} {
			if s.idx != noReg {
				if r := p.pr(s.fp, s.idx); r.ready && !r.wait {
					return true
				}
			}
		}
		return false
	})
	if len(cands) == 0 {
		return false
	}
	e := &p.rob[cands[rng.Intn(len(cands))]]
	for _, s := range [2]struct {
		fp  bool
		idx int32
	}{{e.src1FP, e.src1Phys}, {e.src2FP, e.src2Phys}} {
		if s.idx != noReg {
			if r := p.pr(s.fp, s.idx); r.ready && !r.wait {
				r.ready = false
				return true
			}
		}
	}
	return false
}

// injectValueCorrupt flips bits in the oldest completed-but-uncommitted
// destination register, so the corruption commits before a squash can
// mask it.
func (p *Processor) injectValueCorrupt(rng *rand.Rand) bool {
	cands := p.inflight(func(e *robEntry) bool {
		return e.stage == stDone && e.done && e.newPhys != noReg
	})
	if len(cands) == 0 {
		return false
	}
	e := &p.rob[cands[0]] // oldest: commits soonest, cannot be squashed by older work
	r := p.pr(e.destFP, e.newPhys)
	flip := uint64(1) << uint(rng.Intn(64))
	r.value ^= flip | 0xdead0000
	return true
}

// injectDoubleFree duplicates a random free-list entry.
func (p *Processor) injectDoubleFree(rng *rand.Rand) bool {
	s := &p.regs[0]
	if len(s.free) == 0 {
		return false
	}
	s.free = append(s.free, s.free[rng.Intn(len(s.free))])
	return true
}

// injectColumnLeak deactivates a live bit-vector column without freeing
// it, orphaning any rows parked on it.
func (p *Processor) injectColumnLeak(rng *rand.Rand) bool {
	if p.wib == nil {
		return false
	}
	var active []int32
	for c := range p.wib.cols {
		if p.wib.cols[c].active {
			active = append(active, int32(c))
		}
	}
	if len(active) == 0 {
		return false
	}
	p.wib.cols[active[rng.Intn(len(active))]].active = false
	return true
}

// injectDropWakeup removes one pending load-completion event from the
// event queue — the load it belonged to never finishes.
func (p *Processor) injectDropWakeup(rng *rand.Rand) bool {
	var loads []int
	for i, ev := range p.events.pending() {
		if ev.kind == evLoadDone {
			if e := p.liveEntry(ev.rob, ev.seq); e != nil && e.stage == stIssued {
				loads = append(loads, i)
			}
		}
	}
	if len(loads) == 0 {
		return false
	}
	p.events.drop(loads[rng.Intn(len(loads))])
	return true
}

package core

// Idle-cycle fast-forward: when the pipeline provably cannot fetch,
// dispatch, issue, reinsert, or commit until some scheduled event fires,
// RunContext jumps the clock to the cycle before the next interesting one
// instead of burning a loop iteration per idle cycle. With a 250-cycle
// memory latency the base machine spends most of its time fully stalled
// behind an L2 miss, so this is the difference between simulating every
// stall cycle and simulating none of them.
//
// The contract is bit-identical statistics and telemetry with the
// every-cycle path (TestFastForwardEquivalence enforces it across the
// experiment families). That requires two things:
//
//  1. Soundness of the idle predicate: a skipped cycle must not have been
//     able to mutate any machine state. Every per-cycle mutation source is
//     either gated on a condition `idle` checks (commit/issue/dispatch/
//     fetch/WIB reinsertion), or driven by the event queue, whose next due
//     cycle bounds the jump.
//  2. Replay of the per-cycle bookkeeping that does run on idle cycles:
//     ROB-occupancy and MLP accumulators (bulk-added — their inputs are
//     constant while idle), the store-wait clear timer (closed form), the
//     select examinations of held loads (each held set's size per skipped
//     cycle), and the telemetry sampler (one sample per skipped sampling
//     point). The banked WIB's bank priorities do not move on a cycle with
//     nothing eligible, so they need no replay.
//
// Anything that cannot be replayed exactly simply bounds the jump target
// instead: pending events, the fetch-stall expiry, the earliest MLP fill
// completion, the cycle a bit-vector hold's line may hit, the store-wait
// clear while a load is held on the table, the cycle budget, and the
// watchdog deadline.

// fastForwardEnabled reports whether this configuration may skip idle
// cycles. Debug runs check invariants on every cycle, so they execute
// every cycle.
func (p *Processor) fastForwardEnabled() bool {
	return !p.cfg.NoFastForward && !p.cfg.Debug
}

// idle reports that the NEXT cycle can do no pipeline work other than
// processing due events (which the caller bounds separately): nothing
// committable at the active-list head, no request bit set in either issue
// queue (the bitmaps are exact: a squashed or evicted requester's bit is
// cleared on the spot), nothing in the WIB's eligible structures, a fetch
// queue head that cannot rename, and a front end that cannot fetch. Held
// loads do not count: select would only turn them away again, until a
// wake-up the caller bounds the jump by.
func (p *Processor) idle() bool {
	if p.robCount > 0 {
		h := &p.rob[p.robHead]
		if h.stage == stDone && h.done {
			return false // commit would retire it
		}
	}
	if p.intIQ.req.n > 0 || p.fpIQ.req.n > 0 {
		return false // select would run
	}
	if p.wib != nil && p.wib.hasEligible() {
		return false // reinsertion (or the slice core) would run
	}
	if p.ifqN > 0 && !p.dispatchStalled(&p.ifq[p.ifqHead]) {
		return false // rename would run
	}
	// fetch touches the I-cache whenever its gates are open; an expired
	// (or imminent) stall with fetchable instructions means work.
	if !p.fetchHalted && p.fetchPC < uint64(len(p.prog.Code)) &&
		int(p.ifqN) < len(p.ifq) && p.fetchStall <= p.now+1 {
		return false
	}
	return true
}

// farFuture marks an unbounded fast-forward limit (watchdog disabled and
// no cycle budget). Without a wake candidate there is nothing to jump to;
// the machine keeps executing cycle by cycle, exactly as before.
const farFuture = int64(1) << 62

// fastForward advances the clock to just before the next cycle on which
// anything can happen, bounded by limit (the cycle-budget / watchdog
// cap). The next loop iteration then executes that cycle normally.
func (p *Processor) fastForward(limit int64) {
	if limit <= p.now+1 || !p.idle() {
		return
	}
	target := limit
	if t := p.events.nextCycle(); t >= 0 && t < target {
		target = t
	}
	// A stalled-but-otherwise-able front end resumes at fetchStall.
	if !p.fetchHalted && p.fetchPC < uint64(len(p.prog.Code)) &&
		int(p.ifqN) < len(p.ifq) && p.fetchStall < target {
		target = p.fetchStall
	}
	// MLP accounting pops fills as they complete; do not skip past one.
	// (Normally the fill's evLoadDone bounds the jump first; this also
	// covers fills whose consumer was squashed or whose event was lost.)
	if p.l2MissReady.Len() > 0 {
		if t := p.l2MissReady.Peek(); t < target {
			target = t
		}
	}
	// Held loads ask again when a fill may let a bit-vector hold hit, and
	// when the store-wait table clears.
	held := &p.intIQ.held
	if held[holdBitVector].n > 0 && p.heldFill < target {
		target = p.heldFill
	}
	if held[holdStoreWait].n > 0 && p.sw.interval > 0 && p.sw.nextClear < target {
		target = p.sw.nextClear
	}
	if target <= p.now+1 || target >= farFuture {
		return
	}
	p.skipTo(target - 1)
}

// skipTo bulk-applies the per-cycle bookkeeping for the idle cycles
// p.now+1 .. last and sets the clock to last. Every quantity accumulated
// here is constant over the skipped range (the machine is idle and no
// event fires), so multiplication replaces iteration.
func (p *Processor) skipTo(last int64) {
	delta := last - p.now
	p.sw.fastForward(last)
	if p.robCount > 0 {
		p.stats.robOccupancy += uint64(p.robCount) * uint64(delta)
		p.stats.occupancySamples += uint64(delta)
	}
	// Each skipped cycle's select would have examined every held load.
	held := &p.intIQ.held
	p.stats.StoreWaitHits += uint64(held[holdStoreWait].n) * uint64(delta)
	p.stats.BitVectorStalls += uint64(held[holdBitVector].n) * uint64(delta)
	if n := p.l2MissReady.Len(); n > 0 {
		// No fill completes before last+1 (the jump is bounded by the
		// earliest), so the outstanding count is flat; the peak was
		// already recorded by the cycle that set it.
		p.stats.mlpSum += uint64(n) * uint64(delta)
		p.stats.mlpCycles += uint64(delta)
	}
	if p.tel != nil {
		p.tel.col.CatchUp(last)
	}
	p.now = last
	p.stats.Cycles = last
	// Diagnostics live on the Processor, not in Stats: Stats must be
	// bit-identical with fast-forward disabled.
	p.ffCycles += delta
	p.ffJumps++
}

// FastForwardStats reports how many cycles were skipped and in how many
// jumps (both zero when fast-forward is disabled or never engaged).
func (p *Processor) FastForwardStats() (skipped int64, jumps int64) {
	return p.ffCycles, p.ffJumps
}

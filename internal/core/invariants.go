package core

import "largewindow/internal/isa"

// checkInvariants validates the machine's structural bookkeeping. It is
// O(active list + registers) and runs every cycle when Config.Debug is
// set, so tests can assert that no cycle ever corrupts state. Violations
// raise typed SimPanics — they are simulator bugs, never program
// behaviour — which Processor.Run recovers into structured SimErrors.
func (p *Processor) checkInvariants() {
	for i := range p.regs {
		p.regs[i].check(p)
	}

	// Issue-queue occupancy matches entry stages; WIB occupancy matches
	// parked stages; LSQ counts match allocated entries.
	var intQ, fpQ, requests, parked, inWIB, eligible, loads, stores int
	banked := p.wib != nil && p.wib.cfg.Banked
	size := int32(len(p.rob))
	for i := int32(0); i < p.robCount; i++ {
		idx := (p.robHead + i) % size
		e := &p.rob[idx]
		if e.stage == stFree {
			throw(KindROBFreeEntry, e.seq, "live ROB entry %d is stFree (seq %d)", idx, e.seq)
		}
		switch e.stage {
		case stWaiting, stRequest:
			if e.intIQ {
				intQ++
			} else {
				fpQ++
			}
			if e.stage == stRequest {
				p.checkRequest(idx, e)
				requests++
			}
		case stInWIB:
			parked++
			inWIB++
		case stEligible:
			parked++
			eligible++
			if banked && !p.wib.eligibleBitSet(idx) {
				throw(KindWIBEligibleMap, e.seq, "seq %d in slot %d is eligible but its bitmap bit is clear", e.seq, idx)
			}
		}
		if e.lq != noReg {
			loads++
		}
		if e.sq != noReg {
			stores++
		}
	}
	if intQ != p.intIQ.count {
		throw(KindIQCount, 0, "int IQ count %d, entries say %d", p.intIQ.count, intQ)
	}
	if fpQ != p.fpIQ.count {
		throw(KindIQCount, 0, "fp IQ count %d, entries say %d", p.fpIQ.count, fpQ)
	}
	lines := append([]slotSet{p.intIQ.req, p.fpIQ.req}, p.intIQ.held[:]...)
	checkSlotSets(KindIQRequestMap, "request lines and held sets", requests, append(lines, p.fpIQ.held[:]...)...)
	if p.wib != nil && parked != p.wib.occupancy {
		throw(KindWIBOccupancy, 0, "WIB occupancy %d, entries say %d", p.wib.occupancy, parked)
	}
	if loads != p.lsq.lqCount {
		throw(KindLQCount, 0, "LQ count %d, entries say %d", p.lsq.lqCount, loads)
	}
	if stores != p.lsq.sqCount {
		throw(KindSQCount, 0, "SQ count %d, entries say %d", p.lsq.sqCount, stores)
	}
	p.lsq.checkIndexes()
	if banked {
		checkSlotSets(KindWIBEligibleMap, "eligible bits", eligible, p.wib.banks...)
		if p.wib.eligCount != eligible {
			throw(KindWIBEligibleMap, 0, "eligible count says %d, active list has %d eligible", p.wib.eligCount, eligible)
		}
	}
	if p.wib != nil {
		// Bit-vector conservation: every column is either active or on the
		// free list — a column in neither state has leaked.
		active := 0
		for c := range p.wib.cols {
			if p.wib.cols[c].active {
				active++
			}
		}
		if active+len(p.wib.free) != len(p.wib.cols) {
			throw(KindWIBColumns, 0, "bit-vector columns leaked: active %d + free %d != %d",
				active, len(p.wib.free), len(p.wib.cols))
		}
		p.wib.checkColumnLists(p, inWIB)
	}
	if p.wib != nil && p.wib.cfg.Org == OrgPoolOfBlocks {
		used := 0
		for c := range p.wib.cols {
			used += p.wib.colBlocks[c]
		}
		if used+p.wib.poolFree != p.wib.cfg.Blocks {
			throw(KindPoolLeak, 0, "pool blocks leaked: used %d + free %d != %d",
				used, p.wib.poolFree, p.wib.cfg.Blocks)
		}
	}
}

// checkRequest: a requesting entry is on its queue's request lines or in
// one of its held sets, exactly one; and a held load is one the polling
// select would turn away this cycle for that set's reason, so the
// wake-ups missed no event that could change its answer.
func (p *Processor) checkRequest(idx int32, e *robEntry) {
	in, sets := p.queueOf(e).membership(idx)
	if sets != 1 {
		throw(KindIQRequestMap, e.seq, "seq %d in slot %d requests issue and is in %d of the request lines and held sets, not one", e.seq, idx, sets)
	}
	if in == noHold {
		return
	}
	if e.class != isa.ClassLoad {
		throw(KindIQRequestMap, e.seq, "seq %d in slot %d is held for %s but is no load", e.seq, idx, holdNames[in])
	}
	if v := p.loadHold(e); v.hold != in {
		now := "free to issue"
		if v.hold != noHold {
			now = "held for " + holdNames[v.hold]
		}
		throw(KindIQRequestMap, e.seq, "load seq %d in slot %d is held for %s, but select would find it %s", e.seq, idx, holdNames[in], now)
	}
}

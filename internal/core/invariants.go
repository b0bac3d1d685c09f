package core

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
				if !p.queueOf(e).req.has(idx) {
					throw(KindIQRequestMap, e.seq, "seq %d in slot %d requests issue but its request bit is clear", e.seq, idx)
				}
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
	checkSlotSets(KindIQRequestMap, "request lines", requests, p.intIQ.req, p.fpIQ.req)
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

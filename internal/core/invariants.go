package core

// checkInvariants validates the machine's structural bookkeeping. It is
// O(active list + registers) and runs every cycle when Config.Debug is
// set, so tests can assert that no cycle ever corrupts state. Violations
// raise typed SimPanics — they are simulator bugs, never program
// behaviour — which Processor.Run recovers into structured SimErrors.
func (p *Processor) checkInvariants() {
	// Physical register accounting: every register is exactly one of
	// {architecturally mapped, allocated in flight, free}.
	p.checkRegSpace(false, p.intFree, &p.intMap)
	p.checkRegSpace(true, p.fpFree, &p.fpMap)

	// Issue-queue occupancy matches entry stages; WIB occupancy matches
	// parked stages; LSQ counts match allocated entries.
	var intQ, fpQ, requests, parked, eligible, loads, stores int
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
				if !p.queueOf(e).requesting(idx) {
					throw(KindIQRequestMap, e.seq, "seq %d in slot %d requests issue but its request bit is clear", e.seq, idx)
				}
				requests++
			}
		case stInWIB:
			parked++
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
	// Every requester's bit is set in its own queue's bitmap (checked
	// above), so equal totals mean the bitmaps hold no other bit.
	if n := p.intIQ.countRequests() + p.fpIQ.countRequests(); n != requests {
		throw(KindIQRequestMap, 0, "request bitmaps hold %d bits, active list has %d entries requesting", n, requests)
	}
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
		// Every eligible entry's bit is set (checked above), so equal
		// totals mean the bitmap holds no other bit.
		p.wib.checkEligibleCounts(eligible)
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

// checkRegSpace verifies one register space's free list and mappings are
// disjoint and complete.
func (p *Processor) checkRegSpace(fp bool, free []int32, specMap *[32]int32) {
	total := len(p.intPR)
	if fp {
		total = len(p.fpPR)
	}
	seen := make([]uint8, total)
	for _, r := range free {
		if seen[r] != 0 {
			throw(KindFreeListDouble, 0, "phys reg %d (fp=%v) on the free list twice", r, fp)
		}
		seen[r] = 1
	}
	for a, r := range specMap {
		if seen[r] == 1 {
			throw(KindMapToFree, 0, "arch %d maps to FREE phys %d (fp=%v)", a, r, fp)
		}
		seen[r] |= 2
	}
	// Every in-flight destination must be allocated (not free).
	size := int32(len(p.rob))
	for i := int32(0); i < p.robCount; i++ {
		e := &p.rob[(p.robHead+i)%size]
		if e.newPhys != noReg && e.destFP == fp {
			if seen[e.newPhys] == 1 {
				throw(KindInFlightFree, e.seq, "in-flight dest phys %d (fp=%v, seq %d) is on the free list", e.newPhys, fp, e.seq)
			}
			seen[e.newPhys] |= 4
		}
	}
}

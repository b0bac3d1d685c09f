package core

import "largewindow/internal/isa"

// tryIssueLoad attempts to issue a load whose operands are ready and
// reports whether it went. A load that stays keeps requesting and is
// retried next cycle; besides finding no address-generation unit free it
// may stay for three structural reasons: the store-wait table holds it
// behind unresolved older stores; it must forward from a store whose
// address has resolved but whose data has not (split STA/STD: the data
// operand can sit in a miss chain for hundreds of cycles, and the load
// retries forward every cycle until it arrives); or — with a WIB — no
// bit-vector is free for a new outstanding miss (§4.2).
func (p *Processor) tryIssueLoad(rob int32, e *robEntry) bool {
	rs1 := p.readOperand(e.src1FP, e.src1Phys)
	addr := isa.EffAddr(e.in, rs1)
	waddr := addr &^ 7

	// Store-wait gating (21264 load-store wait prediction).
	if p.sw.predictsWait(e.pc) && p.lsq.olderStoreUnknown(e.lq) {
		p.stats.StoreWaitHits++
		return false
	}

	// Store-to-load forwarding from the youngest older matching store.
	if val, fwdSeq, ok, dataOK := p.lsq.forward(e.lq, waddr); ok {
		if !dataOK {
			// The producing store's data has not arrived; stall the load.
			return false
		}
		lat, fu := p.fus.tryIssue(isa.ClassLoad, p.now)
		if !fu {
			return false
		}
		e.stage = stIssued
		p.traceIssued(e)
		p.lsq.executeLoad(e.lq, waddr, val, fwdSeq)
		p.stats.ForwardedLoads++
		ready := p.now + p.regReadDelay(e) + lat + 1 // one-cycle SQ bypass
		p.events.schedule(event{cycle: ready, kind: evLoadDone, rob: rob, seq: e.seq})
		return true
	}

	// Cache path. With a WIB, a primary load miss needs a bit-vector
	// before it may proceed (limited outstanding loads, §4.2).
	var col int32 = -1
	needCol := p.wib != nil && e.newPhys != noReg
	if needCol {
		if hit, _ := p.hier.ProbeLoad(addr, p.now+1); !hit {
			var ok bool
			col, ok = p.wib.allocColumn(e.seq)
			if !ok {
				p.stats.BitVectorStalls++
				return false
			}
		}
	}
	lat, fu := p.fus.tryIssue(isa.ClassLoad, p.now)
	if !fu {
		if col >= 0 {
			p.wib.releaseColumn(col)
		}
		return false
	}
	e.stage = stIssued
	p.traceIssued(e)
	start := p.now + p.regReadDelay(e) + lat
	res := p.hier.Load(addr, start)
	if res.L2Miss {
		p.noteL2Miss(res.Ready)
	}
	if p.tel != nil {
		p.tel.hLoadLat.Observe(float64(res.Ready - start))
	}
	p.lsq.executeLoad(e.lq, waddr, p.memory.ReadWord(waddr), 0)

	trigger := res.L1Miss && col >= 0
	if p.wib != nil && p.wib.cfg.TriggerL2MissOnly {
		trigger = trigger && res.L2Miss
	}
	if trigger {
		e.ownCol = col
		p.setWait(e, col)
	} else if col >= 0 {
		p.wib.releaseColumn(col)
	}
	p.events.schedule(event{cycle: res.Ready, kind: evLoadDone, rob: rob, seq: e.seq})
	return true
}

// completeLoad finishes a load whose data has arrived: write the value,
// wake dependents, and — if the load owned a bit-vector — make its WIB
// dependence chain eligible for reinsertion.
func (p *Processor) completeLoad(rob int32, e *robEntry) {
	lqe := p.lsq.load(e.lq)
	if e.newPhys != noReg {
		p.writeResult(e, lqe.value)
	}
	e.done = true
	e.stage = stDone
	p.traceCompleted(e)
	if e.ownCol >= 0 {
		p.wib.completeColumn(p, e.ownCol)
		e.ownCol = -1
	}
}

// issueStore starts a store's address computation as soon as the base
// register is ready (split STA/STD, as on the 21264). The data operand is
// captured immediately if ready, or awaited passively otherwise — the
// store has already left the issue queue either way.
func (p *Processor) issueStore(rob int32, e *robEntry, lat int64) {
	rs1 := p.readOperand(e.src1FP, e.src1Phys)
	waddr := isa.EffAddr(e.in, rs1) &^ 7
	sqe := p.lsq.store(e.sq)
	sqe.addr = waddr
	e.stage = stIssued
	p.traceIssued(e)
	r2 := p.pr(e.src2FP, e.src2Phys)
	if r2.ready {
		sqe.data = r2.value
		sqe.dataOK = true
	} else {
		e.awaitData = true
		p.addWaiter(r2, rob, e.seq)
	}
	p.events.schedule(event{cycle: p.now + p.regReadDelay(e) + lat, kind: evExecDone, rob: rob, seq: e.seq})
}

// storeDataArrived captures a store's data operand when its producer
// finally writes back; the store completes once both halves are done.
func (p *Processor) storeDataArrived(e *robEntry) {
	sqe := p.lsq.store(e.sq)
	sqe.data = p.readOperand(e.src2FP, e.src2Phys)
	sqe.dataOK = true
	e.awaitData = false
	if e.addrDone {
		e.done = true
		e.stage = stDone
	}
}

// storeAddressResolved publishes the store's address for forwarding and
// triggers a replay trap if a younger load already read stale data.
func (p *Processor) storeAddressResolved(e *robEntry) {
	addr := p.lsq.store(e.sq).addr // computed at issue
	p.lsq.resolveStore(e.sq, addr)
	if loadRob, _, found := p.lsq.checkViolation(e.sq, addr); found {
		p.recoverReplay(loadRob)
	}
}

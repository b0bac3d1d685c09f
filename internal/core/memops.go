package core

import (
	"largewindow/internal/isa"
	"largewindow/internal/mem"
)

// hold names a reason select turns a load away that only a later event
// can change. Each is a held set of the issue queue (issueQueue.held);
// noHold, the number of them, means the load may go.
type hold int8

const (
	// holdStoreWait: the store-wait table holds it behind an older store
	// whose address is unknown. An older store resolving, or the table's
	// periodic clear, can release it.
	holdStoreWait hold = iota
	// holdForward: it must forward from a store whose address has resolved
	// but whose data has not (split STA/STD: the data operand can sit in a
	// miss chain for hundreds of cycles). The data arriving, or a store
	// between the two resolving to the same word, can release it.
	holdForward
	// holdBitVector: it misses the L1D on a WIB machine and no bit-vector
	// is free for a new outstanding miss (§4.2). A column freeing, its line
	// finishing a fill, or an older store resolving to its word can
	// release it.
	holdBitVector
	noHold
)

var holdNames = [noHold]string{"store-wait", "forwarding", "bit-vector"}

// loadPlan is loadHold's verdict on a load and what issuing it needs.
type loadPlan struct {
	hold        hold
	addr        uint64 // effective address
	val, fwdSeq uint64 // forwards val from the store numbered fwdSeq; 0: reads the cache
	miss        bool   // a primary L1D miss on a WIB machine: claims a bit-vector
	fill        int64  // holdBitVector on a line still filling: the fill's ready cycle, else 0
}

// loadHold decides whether a load whose operands are ready is held back
// this cycle, and why; it changes nothing. tryIssueLoad acts on it, and
// the per-cycle invariant check asks it again for every held load. The
// order is the 21264's: store-wait gating, then store-to-load forwarding
// from the youngest older matching store, then the cache, where with a
// WIB a primary miss needs a bit-vector before it may proceed.
func (p *Processor) loadHold(e *robEntry) loadPlan {
	v := loadPlan{hold: noHold, addr: isa.EffAddr(e.in, p.readOperand(e.src1FP, e.src1Phys))}
	if p.sw.predictsWait(e.pc) && p.lsq.olderStoreUnknown(e.lq) {
		v.hold = holdStoreWait
		return v
	}
	if val, fwdSeq, ok, dataOK := p.lsq.forward(e.lq, v.addr&^7); ok {
		if !dataOK {
			v.hold = holdForward
		}
		v.val, v.fwdSeq = val, fwdSeq
		return v
	}
	if p.wib != nil && e.newPhys != noReg {
		hit, fill := p.hier.ProbeLoad(v.addr, p.now+1)
		v.miss = !hit
		if !hit && len(p.wib.free) == 0 {
			v.hold, v.fill = holdBitVector, fill
		}
	}
	return v
}

// tryIssueLoad attempts to issue a load whose operands are ready and
// reports whether it went. One that finds no address-generation unit free
// keeps requesting and is retried next cycle; one loadHold holds back
// joins the held set of its reason (holdLoad).
func (p *Processor) tryIssueLoad(q *issueQueue, rob int32, e *robEntry) bool {
	v := p.loadHold(e)
	if v.hold != noHold {
		p.holdLoad(q, rob, v)
		return false
	}
	waddr := v.addr &^ 7
	if v.fwdSeq != 0 {
		lat, fu := p.fus.tryIssue(isa.ClassLoad, p.now)
		if !fu {
			return false
		}
		e.stage = stIssued
		p.traceIssued(e)
		p.lsq.executeLoad(e.lq, waddr, v.val, v.fwdSeq)
		p.stats.ForwardedLoads++
		ready := p.now + p.regReadDelay(e) + lat + 1 // one-cycle SQ bypass
		p.events.schedule(event{cycle: ready, kind: evLoadDone, rob: rob, seq: e.seq})
		return true
	}

	var col int32 = -1
	if v.miss {
		col, _ = p.wib.allocColumn(e.seq) // loadHold saw one free
	}
	lat, fu := p.fus.tryIssue(isa.ClassLoad, p.now)
	if !fu {
		if col >= 0 {
			p.releaseColumn(col)
		}
		return false
	}
	e.stage = stIssued
	p.traceIssued(e)
	start := p.now + p.regReadDelay(e) + lat
	res := p.hier.Load(v.addr, start)
	p.noteL1DFill(res)
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
		p.releaseColumn(col)
	}
	p.events.schedule(event{cycle: res.Ready, kind: evLoadDone, rob: rob, seq: e.seq})
	return true
}

// holdLoad moves a load loadHold turned away from the request lines to
// the held set of its reason, where issueFrom's tally counts this
// examination and every later one the load would have had. A bit-vector
// hold on a line still filling is due to be asked again the cycle its
// probe hits.
func (p *Processor) holdLoad(q *issueQueue, rob int32, v loadPlan) {
	if v.hold == holdBitVector && v.fill > 0 {
		p.heldFill = min(p.heldFill, v.fill-1)
	}
	q.req.remove(rob)
	q.held[v.hold].add(rob)
}

// Loads queue in the integer issue queue, so its held sets are the only
// ones that fill; the wake-ups below are the events that can change a
// held load's answer.

// wakeBitVectorHolds: a column returned to the free list, or a line a
// hold may wait for finishes filling.
func (p *Processor) wakeBitVectorHolds() {
	p.heldFill = farFuture
	p.intIQ.wakeHeld(holdBitVector)
}

// releaseColumn frees a load's bit-vector without completing it (see
// wib.releaseColumn) and wakes the loads held for want of one.
func (p *Processor) releaseColumn(c int32) {
	p.wib.releaseColumn(c)
	p.wakeBitVectorHolds()
}

// noteL1DFill: an access that allocated an L1D line makes the line hit
// from its fill's ready cycle on, which may release a bit-vector hold on
// it. (A probe one cycle ahead hits the cycle before.)
func (p *Processor) noteL1DFill(res mem.AccessResult) {
	if res.L1Miss && !res.Merged && p.intIQ.held[holdBitVector].n > 0 {
		p.heldFill = min(p.heldFill, res.Ready-1)
	}
}

// wakeAllHeld: every held load asks again. A store's address resolving
// can release a store-wait hold (one unresolved older store fewer), a
// forwarding hold (a nearer matching store) and a bit-vector hold on the
// same word (it forwards now instead of missing); a load entered in the
// store-wait table may now be held for that instead.
func (p *Processor) wakeAllHeld() {
	p.wakeBitVectorHolds()
	p.intIQ.wakeHeld(holdStoreWait)
	p.intIQ.wakeHeld(holdForward)
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
	p.intIQ.wakeHeld(holdForward)
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
	p.wakeAllHeld()
	if loadRob, _, found := p.lsq.checkViolation(e.sq, addr); found {
		p.recoverReplay(loadRob)
	}
}

package core

import "largewindow/internal/isa"

// dispatch renames and inserts instructions into the active list and
// issue queues. WIB reinsertions share the dispatch bandwidth and take
// priority, to guarantee forward progress for reawakened chains (§3.3).
func (p *Processor) dispatch() {
	slots := p.cfg.DecodeWidth
	if p.wib != nil {
		slots -= p.wib.reinsert(p, slots)
		p.unblockHead()
	}
	for slots > 0 && p.ifqN > 0 {
		if !p.dispatchOne(&p.ifq[p.ifqHead]) {
			return
		}
		p.ifqHead = ringAhead(p.ifqHead, 1, len(p.ifq))
		p.ifqN--
		slots--
	}
}

// dispatchStalled reports whether renaming fe would stall on a structural
// resource (active list, free registers, LSQ, issue queue). It is the
// read-only prefix of dispatchOne — dispatchOne calls it before touching
// any state, and the idle-cycle fast-forward uses it to prove the fetch
// queue head cannot advance, so the two can never diverge.
func (p *Processor) dispatchStalled(fe *ifqEntry) bool {
	if p.robCount == int32(len(p.rob)) {
		return true
	}
	d := &p.dec[fe.pc]
	class, dest := d.Class, d.Dest
	if namesReg(dest) && len(p.space(dest.FP).free) == 0 {
		return true
	}
	if class == isa.ClassLoad && p.lsq.loadFull() {
		return true
	}
	if class == isa.ClassStore && p.lsq.storeFull() {
		return true
	}
	needIQ := true
	switch class {
	case isa.ClassNop, isa.ClassHalt:
		needIQ = false
	case isa.ClassJump:
		needIQ = d.Op == isa.OpJr // J/Jal complete at rename
	}
	if needIQ {
		q := p.intIQ
		if isFPClass(class) {
			q = p.fpIQ
		}
		if q.full() {
			return true
		}
	}
	return false
}

// namesReg reports whether an operand reference names a physical register
// (an absent one and the hardwired integer zero register do not).
func namesReg(r isa.RegRef) bool {
	return r.Valid && (r.FP || r.N != isa.Zero)
}

// renameSource maps a source reference through the speculative map.
func (p *Processor) renameSource(r isa.RegRef) (fp bool, phys int32) {
	if !namesReg(r) {
		return false, noReg
	}
	return r.FP, p.space(r.FP).spec[r.N]
}

// isFPClass reports whether the class dispatches to the FP issue queue.
func isFPClass(class isa.Class) bool {
	return class == isa.ClassFPAdd || class == isa.ClassFPMult ||
		class == isa.ClassFPDiv || class == isa.ClassFPSqrt
}

// dispatchOne renames one instruction; it returns false when a structural
// resource (active list, registers, issue queue, LSQ) is exhausted.
func (p *Processor) dispatchOne(fe *ifqEntry) bool {
	if p.dispatchStalled(fe) {
		return false
	}
	d := &p.dec[fe.pc]
	class, dest := d.Class, d.Dest

	// Zero the slot and store its non-zero fields in place: a composite
	// literal is built on the stack and copied in.
	idx := p.robTail
	e := &p.rob[idx]
	*e = robEntry{}
	e.seq, e.pc, e.in, e.class = p.nextSeq, fe.pc, fe.in, class
	e.stage = stDone // refined below
	e.archDest = -1
	e.newPhys, e.oldPhys, e.src1Phys, e.src2Phys = noReg, noReg, noReg, noReg
	e.lq, e.sq, e.wibCol, e.ownCol = noReg, noReg, -1, -1
	e.intIQ = !isFPClass(class)
	p.nextSeq++

	// Rename sources against the current speculative map, then allocate
	// and map the destination.
	e.src1FP, e.src1Phys = p.renameSource(d.Src1)
	e.src2FP, e.src2Phys = p.renameSource(d.Src2)
	if namesReg(dest) {
		e.archDest = int8(dest.N)
		e.destFP = dest.FP
		e.newPhys, e.oldPhys = p.space(dest.FP).rename(dest.N)
	}

	switch class {
	case isa.ClassLoad:
		e.lq = p.lsq.allocLoad(idx, e.seq)
	case isa.ClassStore:
		e.sq = p.lsq.allocStore(e.seq)
	}
	if fe.isBranch {
		e.isBranch = true
		e.pred = fe.pred
		e.bpCp = fe.cp
	}

	p.robTail = ringAhead(p.robTail, 1, len(p.rob))
	p.robCount++
	if p.tracer != nil {
		p.tracer.dispatch(e, fe.fetched, p.now)
	}

	switch {
	case class == isa.ClassNop || class == isa.ClassHalt:
		e.done = true
	case class == isa.ClassJump && d.Op != isa.OpJr:
		// Direct jumps complete at rename; the target was validated at
		// fetch (pred.Target == in.Target always for direct ops).
		e.done = true
		e.resolved = true
		e.actualTaken = true
		e.actualTarget = d.Target
		if e.newPhys != noReg {
			p.writeResult(e, fe.pc+1) // Jal link value
		}
	default:
		p.queueOf(e).count++
		p.registerInIQ(idx)
	}
	return true
}

// unblockHead guarantees forward progress for the oldest instruction: if
// the active-list head is WIB-eligible but its issue queue is full, the
// youngest queued instruction is spilled back to the eligible pool to
// free a slot (the hardware analogue of the paper's anti-livelock
// priority rules, applied at the queue level).
func (p *Processor) unblockHead() {
	if p.robCount == 0 {
		return
	}
	h := &p.rob[p.robHead]
	if h.stage != stEligible {
		return
	}
	q := p.queueOf(h)
	if !q.full() {
		return
	}
	size := int32(len(p.rob))
	for i := int32(1); i < p.robCount; i++ {
		idx := (p.robTail - i + size) % size // youngest first
		e := &p.rob[idx]
		if (e.stage == stWaiting || e.stage == stRequest) && p.queueOf(e) == q {
			q.unrequest(idx)
			q.count--
			p.note("head-evict", e.seq, e.pc)
			p.wib.park(p, idx, e, -1)
			p.stats.HeadEvictions++
			return
		}
	}
}

// recoverBranch squashes everything younger than a mispredicted branch,
// repairs predictor state, and redirects fetch after the mispredict
// penalty.
func (p *Processor) recoverBranch(rob int32) {
	e := &p.rob[rob]
	p.note("mispredict", e.seq, e.pc)
	p.squashFrom(e.seq, false)
	p.bp.Squash(e.bpCp)
	p.bp.Redo(e.pc, e.in, e.bpCp, e.actualTaken)
	target := e.pc + 1
	if e.actualTaken {
		target = e.actualTarget
	}
	p.fetchPC = target
	p.fetchStall = p.now + p.cfg.MispredictPenalty
	p.fetchHalted = false
	p.stats.Mispredicts++
}

// recoverReplay squashes from a load that read stale data (load-store
// order violation), inclusive, marks its PC in the store-wait table, and
// refetches it (21264 replay trap).
func (p *Processor) recoverReplay(loadRob int32) {
	e := &p.rob[loadRob]
	pc := e.pc
	p.note("replay", e.seq, pc)
	p.squashFrom(e.seq, true)
	p.sw.set(pc)
	p.wakeAllHeld()
	p.fetchPC = pc
	p.fetchStall = p.now + p.cfg.MispredictPenalty
	p.fetchHalted = false
	p.stats.Replays++
}

// squashFrom removes all instructions younger than boundarySeq (and the
// boundary itself when inclusive) from the machine, youngest first:
// predictor fixup, rename-map rollback, register freeing, LSQ tail
// rollback, queue occupancy, and WIB bookkeeping.
func (p *Processor) squashFrom(boundarySeq uint64, inclusive bool) {
	p.flushIFQ()
	for p.robCount > 0 {
		idx := ringBack(p.robTail, 1, len(p.rob))
		e := &p.rob[idx]
		if e.seq < boundarySeq || (!inclusive && e.seq == boundarySeq) {
			break
		}
		p.squashEntry(idx, e)
		p.robTail = idx
		p.robCount--
	}
}

func (p *Processor) squashEntry(idx int32, e *robEntry) {
	p.stats.SquashedInstrs++
	if p.tracer != nil {
		p.trace(e, func(t *InstrTrace, now int64) { t.Squashed, t.SquashCyc = true, now })
		p.tracer.archive(e.seq)
	}
	if e.isBranch {
		p.bp.Squash(e.bpCp)
	}
	switch e.stage {
	case stWaiting, stRequest:
		q := p.queueOf(e)
		q.unrequest(idx)
		q.count--
	case stInWIB:
		p.wib.unpark()
		p.wib.unlinkRow(e.wibCol, idx)
	case stEligible:
		p.wib.unpark()
		p.wib.squashEligible(idx, e.seq)
	}
	if e.lq != noReg {
		p.lsq.squashLoad(e.lq)
	}
	if e.sq != noReg {
		p.lsq.squashStore(e.sq)
	}
	if e.ownCol >= 0 {
		p.releaseColumn(e.ownCol)
	}
	if e.newPhys != noReg {
		s := p.space(e.destFP)
		s.spec[e.archDest] = e.oldPhys
		s.release(e.newPhys)
	}
	e.stage = stFree
}

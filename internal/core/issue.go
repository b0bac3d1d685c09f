package core

import (
	"largewindow/internal/isa"
	"largewindow/internal/regfile"
)

// issueQueue models one issue queue: a capacity (entries live in the ROB;
// only occupancy is tracked here) plus the wakeup-select request lines: the
// set of active-list slots holding a stRequest entry of this queue. Its
// first member in ring order from the active-list head is the oldest
// requester — select is oldest-first, as in the base machine. Every way
// out of stRequest — a grant, a squash, a head-evict, a stale operand —
// removes the slot from req on the spot.
type issueQueue struct {
	size  int
	count int
	req   slotSet
}

func newIssueQueue(size, activeList int) *issueQueue {
	return &issueQueue{size: size, req: newSlotSet(activeList)}
}

func (q *issueQueue) full() bool { return q.count >= q.size }

// selectOldest is the select loop of both queues: one scan of the request
// lines in ring order from the active-list head, offering each request to
// grant until width are granted, and returning that number. A granted
// entry gives up its request line and its queue slot; one turned away
// keeps requesting and is met again, in age order, next pass. grant may
// withdraw the request itself (the entry stays queued) and may make
// younger entries request: those lie ahead of the scan, which searches the
// set afresh at every step and so meets them in the same pass.
func (q *issueQueue) selectOldest(head int32, width int, grant func(rob int32) bool) int {
	issued, kept := 0, 0 // kept: requests behind the scan
	// While kept < n a request lies ahead of the scan, so the ring search
	// finds it before coming round to the head again.
	for pos := head; issued < width && kept < q.req.n; {
		rob := q.req.firstFrom(pos)
		if rob < 0 {
			break
		}
		pos = rob + 1
		if grant(rob) {
			q.req.remove(rob)
			q.count--
			issued++
		} else if q.req.has(rob) {
			kept++
		}
	}
	return issued
}

// fuPools tracks functional-unit availability per class (paper Table 1).
// The per-class pools live in a fixed array indexed by isa.Class — the
// lookup on the issue path is one bounds-checked load, not a map probe.
type fuPools struct {
	pools [isa.NumClasses]*fuPool
}

type fuPool struct {
	n         int
	lat       int64
	pipelined bool
	busy      []int64 // per-unit busy-until, non-pipelined units
	used      int     // issues this cycle, pipelined units
	lastCycle int64
}

func newFUPools(cfg Config) fuPools {
	mk := func(n int, lat int64, pipelined bool) *fuPool {
		p := &fuPool{n: n, lat: lat, pipelined: pipelined, lastCycle: -1}
		if !pipelined {
			p.busy = make([]int64, n)
		}
		return p
	}
	alu := mk(cfg.NumIntALU, cfg.LatIntALU, true)
	var f fuPools
	f.pools[isa.ClassIntALU] = alu
	f.pools[isa.ClassBranch] = alu // branches execute on the integer ALUs
	f.pools[isa.ClassJump] = alu
	f.pools[isa.ClassLoad] = alu // address generation
	f.pools[isa.ClassStore] = alu
	f.pools[isa.ClassIntMult] = mk(cfg.NumIntMult, cfg.LatIntMult, true)
	f.pools[isa.ClassFPAdd] = mk(cfg.NumFPAdd, cfg.LatFPAdd, true)
	f.pools[isa.ClassFPMult] = mk(cfg.NumFPMult, cfg.LatFPMult, true)
	f.pools[isa.ClassFPDiv] = mk(cfg.NumFPDiv, cfg.LatFPDiv, false)
	f.pools[isa.ClassFPSqrt] = mk(cfg.NumFPSqrt, cfg.LatFPSqrt, false)
	return f
}

// tryIssue reserves a unit of the class at cycle now and returns the
// operation latency.
func (f *fuPools) tryIssue(c isa.Class, now int64) (int64, bool) {
	p := f.pools[c]
	if p == nil {
		return 0, false
	}
	if p.pipelined {
		if p.lastCycle != now {
			p.lastCycle = now
			p.used = 0
		}
		if p.used >= p.n {
			return 0, false
		}
		p.used++
		return p.lat, true
	}
	for i := range p.busy {
		if p.busy[i] <= now {
			p.busy[i] = now + p.lat
			return p.lat, true
		}
	}
	return 0, false
}

// operandSatisfied reports whether one source operand no longer blocks
// issue: absent, truly ready, or pretend-ready (wait bit set). Wait bits
// always satisfy the wakeup condition — §3.2's "pretend ready" — even if
// the bit-vector they reference has already completed; the select stage
// sorts out where such instructions park.
func (p *Processor) operandSatisfied(fp bool, idx int32) bool {
	if idx == noReg {
		return true
	}
	r := p.pr(fp, idx)
	return r.ready || r.wait
}

// registerInIQ (re)inserts a ROB entry into its issue queue's wakeup
// machinery: compute the unsatisfied-operand count from current register
// state, register waiters, and request issue if none remain. The caller
// has already accounted queue occupancy.
func (p *Processor) registerInIQ(rob int32) {
	e := &p.rob[rob]
	e.waitCount = 0
	if !p.operandSatisfied(e.src1FP, e.src1Phys) {
		e.waitCount++
		p.addWaiter(p.pr(e.src1FP, e.src1Phys), rob, e.seq)
	}
	// Stores issue on their base register alone (split STA/STD); the data
	// operand is captured at issue or awaited afterwards.
	if e.class != isa.ClassStore && !p.operandSatisfied(e.src2FP, e.src2Phys) {
		e.waitCount++
		p.addWaiter(p.pr(e.src2FP, e.src2Phys), rob, e.seq)
	}
	if e.waitCount == 0 {
		e.stage = stRequest
		p.queueOf(e).req.add(rob)
	} else {
		e.stage = stWaiting
	}
}

func (p *Processor) queueOf(e *robEntry) *issueQueue {
	if e.intIQ {
		return p.intIQ
	}
	return p.fpIQ
}

// wakeWaiters is the wakeup broadcast: register idx became ready (or had
// its wait bit set, which counts as pretend-ready). Waiting entries
// decrement their unsatisfied count and request issue at zero. With the
// eager-pretend optimization, a wait broadcast promotes waiters
// immediately.
//
// The waiter list's backing array is retained on the register: re-arms
// (issued stores kept waiting by a wait broadcast) compact in place, so
// steady-state broadcasts allocate nothing.
func (p *Processor) wakeWaiters(fp bool, idx int32, waitSet bool) {
	r := p.pr(fp, idx)
	if len(r.waiters) == 0 {
		return
	}
	ws := r.waiters
	r.waiters = r.waiters[:0]
	eager := waitSet && p.wib != nil && p.wib.cfg.EagerPretend
	for _, w := range ws {
		e := p.liveEntry(w.rob, w.seq)
		if e == nil {
			continue
		}
		if e.awaitData && e.stage == stIssued {
			// An issued store waiting for its data operand: only a true
			// result delivers it; a wait broadcast keeps it waiting. The
			// re-append writes at or before the slot being read, so the
			// in-place reuse of ws's backing array is safe.
			if waitSet {
				r.waiters = append(r.waiters, w)
			} else {
				p.storeDataArrived(e)
			}
			continue
		}
		if e.stage != stWaiting && e.stage != stRequest {
			continue
		}
		if e.stage == stWaiting {
			if eager {
				// Promote immediately; remaining operands re-evaluated at
				// select time and after reinsertion.
				e.stage = stRequest
				p.queueOf(e).req.add(w.rob)
				continue
			}
			e.waitCount--
			if e.waitCount <= 0 {
				e.stage = stRequest
				p.queueOf(e).req.add(w.rob)
			}
		}
	}
}

// issue performs select for both queues.
func (p *Processor) issue() {
	p.issueFrom(p.intIQ, p.cfg.IssueInt)
	p.issueFrom(p.fpIQ, p.cfg.IssueFP)
}

// issueFrom runs one select pass over q.
func (p *Processor) issueFrom(q *issueQueue, width int) {
	p.issueSlots += uint64(q.selectOldest(p.robHead, width, func(rob int32) bool { return p.selectEntry(q, rob) }))
}

// selectEntry decides one request of q and reports whether the entry
// leaves the queue through an issue slot. One that cannot go this cycle
// (no functional unit, or a load tryIssueLoad holds back) stays in
// stRequest and is retried next cycle.
func (p *Processor) selectEntry(q *issueQueue, rob int32) bool {
	e := &p.rob[rob]
	if e.stage != stRequest || p.queueOf(e) != q {
		throw(KindIQRequestMap, e.seq, "select met a request bit on slot %d, which is not requesting (seq %d, %s)",
			rob, e.seq, stageNames[e.stage])
	}
	// Re-evaluate operands at select time. Stores gate only on the
	// base register (split STA/STD).
	s1w := p.operandWaits(e.src1FP, e.src1Phys)
	s1ok := p.operandSatisfied(e.src1FP, e.src1Phys)
	s2w, s2ok := false, true
	if e.class != isa.ClassStore {
		s2w = p.operandWaits(e.src2FP, e.src2Phys)
		s2ok = p.operandSatisfied(e.src2FP, e.src2Phys)
	}
	eager := p.wib != nil && p.wib.cfg.EagerPretend
	if p.wib != nil && (s1w || s2w) && (eager || (s1ok && s2ok)) {
		// Pretend-ready: consumes an issue slot but goes to the WIB
		// instead of a functional unit (§3.2). Under the eager
		// optimization this happens as soon as one operand waits. If
		// every referenced bit-vector has already completed (the
		// producer is awaiting reinsertion), the instruction becomes
		// immediately eligible — it may recycle through the queue,
		// which is the behaviour the paper reports (§4.1).
		col, ok := p.waitColumn(e)
		if ok && !p.wib.blockAvailable(col) {
			// Pool-of-blocks organization with no block left to deposit
			// into: spill straight to the eligible pool, as when no live
			// bit-vector is left (the producer awaits reinsertion).
			p.stats.PoolSpills++
			col = -1
		}
		p.wib.park(p, rob, e, col)
		return true
	}
	if !s1ok || !s2ok {
		// Stale request (a wait operand resolved or was never truly
		// satisfiable); go back to waiting. The entry never left the
		// queue, so occupancy is unchanged.
		q.req.remove(rob)
		p.registerInIQ(rob)
		return false
	}
	if e.class == isa.ClassLoad {
		return p.tryIssueLoad(rob, e)
	}
	lat, ok := p.fus.tryIssue(e.class, p.now)
	if !ok {
		return false
	}
	if e.class == isa.ClassStore {
		p.issueStore(rob, e, lat)
	} else {
		p.launch(rob, e, lat)
	}
	return true
}

// operandWaits reports whether a source operand is pretend-ready (its
// producer has been moved to the WIB and has not produced a value yet).
func (p *Processor) operandWaits(fp bool, idx int32) bool {
	if idx == noReg || p.wib == nil {
		return false
	}
	return p.pr(fp, idx).wait
}

// waitColumn returns a live bit-vector column for the instruction's
// pretend-ready operands, if any of them still references one.
func (p *Processor) waitColumn(e *robEntry) (int32, bool) {
	for _, s := range [2]struct {
		fp  bool
		idx int32
	}{{e.src1FP, e.src1Phys}, {e.src2FP, e.src2Phys}} {
		if s.idx == noReg {
			continue
		}
		r := p.pr(s.fp, s.idx)
		if r.wait && p.wib.fresh(r.col, r.colGen) {
			return r.col, true
		}
	}
	return -1, false
}

// launch starts a plain ALU/FP instruction on a reserved functional unit.
func (p *Processor) launch(rob int32, e *robEntry, lat int64) {
	p.traceIssued(e)
	e.stage = stIssued
	delay := p.regReadDelay(e)
	p.events.schedule(event{cycle: p.now + delay + lat, kind: evExecDone, rob: rob, seq: e.seq})
}

// rf returns the register-file timing model of one register space.
func (p *Processor) rf(fp bool) regfile.Model { return p.space(fp).rf }

// prefetchSources pulls an instruction's source registers into the
// two-level register file's first level (no-op for other file kinds).
func (p *Processor) prefetchSources(e *robEntry) {
	type prefetcher interface{ Prefetch(int) }
	if pf, ok := p.rf(e.src1FP).(prefetcher); ok && e.src1Phys != noReg {
		pf.Prefetch(int(e.src1Phys))
	}
	if pf, ok := p.rf(e.src2FP).(prefetcher); ok && e.src2Phys != noReg {
		pf.Prefetch(int(e.src2Phys))
	}
}

// regReadDelay models the register-read stage against the configured
// register file (two-level files can add L2 access cycles, §3.4).
func (p *Processor) regReadDelay(e *robEntry) int64 {
	var d int64
	if e.src1Phys != noReg {
		d = p.rf(e.src1FP).ReadDelay(int(e.src1Phys), p.now)
	}
	if e.src2Phys != noReg {
		d = max(d, p.rf(e.src2FP).ReadDelay(int(e.src2Phys), p.now))
	}
	return d
}

package core

import (
	"largewindow/internal/heap"
	"largewindow/internal/isa"
)

// readyItem is one issue request, ordered oldest-first.
type readyItem struct {
	seq uint64
	rob int32
}

func readyBefore(a, b readyItem) bool { return a.seq < b.seq }

// issueQueue models one issue queue: a capacity (entries live in the ROB;
// only occupancy is tracked here) plus the wakeup-select request heap.
// Select order is oldest-first, as in the base machine.
type issueQueue struct {
	size  int
	count int
	ready heap.Heap[readyItem]
}

func newIssueQueue(size int) *issueQueue {
	return &issueQueue{size: size, ready: heap.NewWithCapacity(readyBefore, size)}
}

func (q *issueQueue) full() bool { return q.count >= q.size }

func (q *issueQueue) request(seq uint64, rob int32) {
	q.ready.Push(readyItem{seq: seq, rob: rob})
}

func (q *issueQueue) pop() (readyItem, bool) {
	if q.ready.Len() == 0 {
		return readyItem{}, false
	}
	return q.ready.Pop(), true
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
		p.queueOf(e).request(e.seq, rob)
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
				p.queueOf(e).request(e.seq, w.rob)
				continue
			}
			e.waitCount--
			if e.waitCount <= 0 {
				e.stage = stRequest
				p.queueOf(e).request(e.seq, w.rob)
			}
		}
	}
}

// issue performs select for both queues.
func (p *Processor) issue() {
	p.retryDeferredLoads()
	p.issueFrom(p.intIQ, p.cfg.IssueInt)
	p.issueFrom(p.fpIQ, p.cfg.IssueFP)
}

// retryDeferredLoads re-requests loads that failed structural checks
// (store-wait gating, forwarding stalls, bit-vector exhaustion) on a
// previous cycle. The two defer lists ping-pong so the per-cycle drain
// allocates nothing.
func (p *Processor) retryDeferredLoads() {
	if len(p.deferredLoads) == 0 {
		return
	}
	pending := p.deferredLoads
	p.deferredLoads = p.deferredScratch[:0]
	for _, it := range pending {
		if e := p.liveEntry(it.rob, it.seq); e != nil && e.stage == stRequest {
			p.queueOf(e).request(e.seq, it.rob)
		}
	}
	p.deferredScratch = pending[:0]
}

func (p *Processor) issueFrom(q *issueQueue, width int) {
	issued := 0
	setAside := p.setAsideScratch[:0]
	for issued < width {
		item, ok := q.pop()
		if !ok {
			break
		}
		e := p.liveEntry(item.rob, item.seq)
		if e == nil || e.stage != stRequest {
			continue // squashed or moved since requesting
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
			if col, ok := p.waitColumn(e); ok && p.wib.blockAvailable(col) {
				p.moveToWIB(item.rob, e, col)
			} else {
				// No live bit-vector (the producer awaits reinsertion) or
				// — in the pool-of-blocks organization — no block left to
				// deposit into: spill straight to the eligible pool.
				if ok {
					p.stats.PoolSpills++
				}
				p.parkEligible(item.rob, e)
			}
			q.count--
			issued++
			continue
		}
		if !s1ok || !s2ok {
			// Stale request (a wait operand resolved or was never truly
			// satisfiable); go back to waiting. The entry never left the
			// queue, so occupancy is unchanged.
			p.registerInIQ(item.rob)
			continue
		}
		switch e.class {
		case isa.ClassLoad:
			switch p.tryIssueLoad(item.rob, e) {
			case issueOK:
				q.count--
				issued++
			case issueDefer:
				// Structural defer (store-wait, bit-vector exhaustion):
				// retry next cycle without burning the slot.
				p.deferredLoads = append(p.deferredLoads, item)
			case issueNoFU:
				setAside = append(setAside, item)
			}
			continue
		case isa.ClassStore:
			lat, ok := p.fus.tryIssue(e.class, p.now)
			if !ok {
				setAside = append(setAside, item)
				continue
			}
			p.issueStore(item.rob, e, lat)
		default:
			lat, ok := p.fus.tryIssue(e.class, p.now)
			if !ok {
				setAside = append(setAside, item)
				continue
			}
			p.launch(item.rob, e, lat)
		}
		q.count--
		issued++
	}
	for _, it := range setAside {
		q.ready.Append(it)
	}
	if len(setAside) > 0 {
		q.ready.Init()
	}
	p.setAsideScratch = setAside[:0]
	if p.tel != nil && issued > 0 {
		p.tel.cIssue.Add(uint64(issued))
	}
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
	if p.tracer != nil {
		now := p.now
		p.tracer.event(e.seq, func(t *InstrTrace) { t.Issued = now })
	}
	e.stage = stIssued
	delay := p.regReadDelay(e)
	p.events.schedule(event{cycle: p.now + delay + lat, kind: evExecDone, rob: rob, seq: e.seq})
}

// prefetchSources pulls an instruction's source registers into the
// two-level register file's first level (no-op for other file kinds).
func (p *Processor) prefetchSources(e *robEntry) {
	type prefetcher interface{ Prefetch(int) }
	if e.src1Phys != noReg {
		rf := p.rfInt
		if e.src1FP {
			rf = p.rfFP
		}
		if pf, ok := rf.(prefetcher); ok {
			pf.Prefetch(int(e.src1Phys))
		}
	}
	if e.src2Phys != noReg {
		rf := p.rfInt
		if e.src2FP {
			rf = p.rfFP
		}
		if pf, ok := rf.(prefetcher); ok {
			pf.Prefetch(int(e.src2Phys))
		}
	}
}

// regReadDelay models the register-read stage against the configured
// register file (two-level files can add L2 access cycles, §3.4).
func (p *Processor) regReadDelay(e *robEntry) int64 {
	var d int64
	if e.src1Phys != noReg {
		rf := p.rfInt
		if e.src1FP {
			rf = p.rfFP
		}
		d = rf.ReadDelay(int(e.src1Phys), p.now)
	}
	if e.src2Phys != noReg {
		rf := p.rfInt
		if e.src2FP {
			rf = p.rfFP
		}
		if d2 := rf.ReadDelay(int(e.src2Phys), p.now); d2 > d {
			d = d2
		}
	}
	return d
}

package core

import (
	"cmp"
	"slices"

	"largewindow/internal/heap"
)

// This file implements the paper's contribution: the Waiting Instruction
// Buffer (§3.3). Every active-list slot owns a WIB slot (allocation in
// program order), so the ROB index doubles as the WIB row. Dependence on
// an outstanding load miss is tracked with one bit-vector "column" per
// outstanding load; rows are appended as instructions are moved out of the
// issue queue. On load completion the column's surviving rows become
// eligible and are reinserted into the issue queues through the configured
// selection policy, sharing (and taking priority for) dispatch bandwidth.
//
// Squash handling follows §3.3.2's bit-clearing at two granularities.
// Bit-vector columns are lazy: rows carry the instruction's sequence
// number, and stale rows (squashed, or slot reused) are dropped when the
// column completes. The banked organization's eligible set is exact: one
// bit per active-list slot, set when the instruction becomes eligible and
// cleared when it is reinserted or squashed, so each bank's select is a
// priority encode over its own bits (§3.3.1) and never meets a stale row.
// The idealized policies (program-order heap, per-load groups, the
// pool-of-blocks FIFO, the slice core) keep seq-validated rows.

type wibRow struct {
	rob int32
	seq uint64
}

// wibColumn is one bit-vector. Its rows live in a chain of fixed-size
// chunks drawn from the WIB's shared arena, in deposit order; n counts
// them (stale rows included).
type wibColumn struct {
	active     bool
	loadSeq    uint64
	head, tail int32 // chunk chain, noChunk when empty
	n          int
}

// rowChunk is one block of column rows. Chains of chunks replace a slice
// per column, so row storage follows the number of parked instructions
// instead of (columns used) × (longest chain any of them ever held), and
// a column that completes hands its storage to the next miss.
type rowChunk struct {
	rows [chunkRows]wibRow
	n    int32
	next int32 // next chunk of the column, or of the free list
}

const (
	chunkRows       = 32
	noChunk   int32 = -1
)

// wibGroup is the surviving dependence chain of one completed load, used
// by the per-load selection policies.
type wibGroup struct {
	loadSeq uint64
	rows    []wibRow // sorted by seq (program order)
}

func rowBefore(a, b wibRow) bool { return a.seq < b.seq }

type wib struct {
	cfg  WIBConfig
	cols []wibColumn
	gens []uint64 // per-column allocation generation (wait-bit staleness)
	free []int32

	chunks    []rowChunk // row arena, grown on demand and never shrunk
	freeChunk int32      // head of the free-chunk list

	// Banked organization: each bank's eligible set, plus the rotating
	// sticky priority order (§3.3.1). Bank b owns active-list slots ≡ b
	// (mod Banks); position k of its set is slot b + k·Banks, so ascending
	// position is ascending slot order within the bank. eligCount is the
	// total over the banks.
	//
	// A cycle reaches only the banks of its own parity, so the order is
	// kept per parity: bankPrio[0] ranks the even banks, bankPrio[1] the
	// odd ones, and a cycle that finds nothing eligible leaves both as
	// they are.
	banks     []slotSet
	eligCount int
	bankPrio  [2][]int32

	// Idealized / non-banked policies.
	elig       heap.Heap[wibRow] // program-order policy
	groups     []wibGroup        // per-load policies
	rrNext     int               // round-robin cursor over groups
	nextAccess int64             // non-banked multicycle access gate

	// Per-cycle scratch buffers, reused so the steady-state reinsertion
	// paths allocate nothing.
	liveScratch    []wibRow
	blockedScratch []wibRow
	putBackScratch []wibRow
	prioScratch    []int32

	occupancy int // rows currently parked (stInWIB or stEligible)
	peak      int

	// Pool-of-blocks organization (§3.5): blocks remaining in the shared
	// pool, per-column block counts, and the deposit-order reinsertion
	// FIFO.
	poolFree  int
	colBlocks []int
	chainFIFO []wibRow
}

func newWIB(cfg WIBConfig, activeList, loadQueue int) *wib {
	if cfg.SliceWidth > 0 {
		// The slice core consumes the program-order eligible heap.
		cfg.Banked = false
		cfg.Policy = PolicyProgramOrder
	}
	if !cfg.Banked && cfg.Policy == PolicyBanked {
		// A non-banked WIB extracts in full program order (§4.5).
		cfg.Policy = PolicyProgramOrder
	}
	nCols := cfg.BitVectors
	if nCols <= 0 {
		// Unlimited: bounded by the number of loads that can be in flight.
		nCols = loadQueue
	}
	w := &wib{cfg: cfg, cols: make([]wibColumn, nCols), gens: make([]uint64, nCols)}
	w.elig = heap.New(rowBefore)
	w.free = make([]int32, 0, nCols)
	for i := nCols - 1; i >= 0; i-- {
		w.free = append(w.free, int32(i))
	}
	for i := range w.cols {
		w.cols[i].head, w.cols[i].tail = noChunk, noChunk
	}
	w.freeChunk = noChunk
	if cfg.Org == OrgPoolOfBlocks {
		if w.cfg.BlockSlots <= 0 {
			w.cfg.BlockSlots = 32
		}
		if w.cfg.Blocks <= 0 {
			w.cfg.Blocks = cfg.Entries / w.cfg.BlockSlots
		}
		w.poolFree = w.cfg.Blocks
		w.colBlocks = make([]int, nCols)
		// Chains are reinserted in deposit order; banking does not apply.
		w.cfg.Banked = false
	}
	if w.cfg.Banked {
		w.banks = newSlotSets(w.cfg.Banks, (activeList+w.cfg.Banks-1)/w.cfg.Banks)
		for b := range w.banks {
			w.bankPrio[b&1] = append(w.bankPrio[b&1], int32(b))
		}
		w.prioScratch = make([]int32, 0, w.cfg.Banks)
	}
	return w
}

// depositRow appends a row to column c's chain.
func (w *wib) depositRow(c int32, r wibRow) {
	col := &w.cols[c]
	if col.tail == noChunk || w.chunks[col.tail].n == chunkRows {
		k := w.freeChunk
		if k != noChunk {
			w.freeChunk = w.chunks[k].next
		} else {
			// Grow the arena by doubling from 16 chunks: a handful of
			// allocations for the deepest window, none at construction.
			k = int32(len(w.chunks))
			w.chunks = append(slices.Grow(w.chunks, max(16, len(w.chunks))), rowChunk{})
		}
		w.chunks[k].n, w.chunks[k].next = 0, noChunk
		if col.tail == noChunk {
			col.head = k
		} else {
			w.chunks[col.tail].next = k
		}
		col.tail = k
	}
	ch := &w.chunks[col.tail]
	ch.rows[ch.n] = r
	ch.n++
	col.n++
}

// dropRows returns column c's whole chain to the free list.
func (w *wib) dropRows(c int32) {
	col := &w.cols[c]
	if col.head != noChunk {
		w.chunks[col.tail].next = w.freeChunk
		w.freeChunk = col.head
	}
	col.head, col.tail, col.n = noChunk, noChunk, 0
}

// blockAvailable reserves deposit space for one more instruction on a
// pool-of-blocks column, claiming a fresh block from the pool when the
// current one is full. It reports false when the pool is exhausted.
func (w *wib) blockAvailable(c int32) bool {
	if w.cfg.Org != OrgPoolOfBlocks {
		return true
	}
	if w.cols[c].n < w.colBlocks[c]*w.cfg.BlockSlots {
		return true
	}
	if w.poolFree == 0 {
		return false
	}
	w.poolFree--
	w.colBlocks[c]++
	return true
}

// releaseBlocks returns a column's blocks to the pool.
func (w *wib) releaseBlocks(c int32) {
	if w.cfg.Org != OrgPoolOfBlocks {
		return
	}
	w.poolFree += w.colBlocks[c]
	w.colBlocks[c] = 0
}

// allocColumn claims a bit-vector for a new outstanding load miss.
func (w *wib) allocColumn(loadSeq uint64) (int32, bool) {
	if len(w.free) == 0 {
		return -1, false
	}
	c := w.free[len(w.free)-1]
	w.free = w.free[:len(w.free)-1]
	col := &w.cols[c]
	col.active = true
	col.loadSeq = loadSeq
	w.gens[c]++
	return c, true
}

// gen returns the current allocation generation of column c.
func (w *wib) gen(c int32) uint64 { return w.gens[c] }

// fresh reports whether (c, gen) still names a live bit-vector.
func (w *wib) fresh(c int32, gen uint64) bool {
	return c >= 0 && int(c) < len(w.cols) && w.cols[c].active && w.gens[c] == gen
}

// releaseColumn frees a bit-vector without completing it (load squashed,
// or the miss turned out not to trigger the WIB).
func (w *wib) releaseColumn(c int32) {
	if !w.cols[c].active {
		return
	}
	w.releaseBlocks(c)
	w.dropRows(c)
	w.cols[c].active = false
	w.free = append(w.free, c)
}

// park is the one way into the WIB. A pretend-ready instruction leaves
// its issue queue (the caller adjusts occupancy) to wait on bit-vector
// column c; with c < 0 — every bit-vector it referenced has completed, or
// it is evicted to unblock the head — it goes straight to the eligible
// pool and is reinserted like any other entry. Either way the wait bit
// propagates through its destination register (§3.2), with no live column
// in the second case, so transitive dependents behave the same way.
func (w *wib) park(p *Processor, rob int32, e *robEntry, c int32) {
	if c >= 0 && (int(c) >= len(w.cols) || !w.cols[c].active) {
		throw(KindWIBBadColumn, e.seq, "park seq %d on dead bit-vector column %d", e.seq, c)
	}
	p.trace(e, func(t *InstrTrace, now int64) { t.Parks = append(t.Parks, now) })
	e.wibCol = c
	e.insertions++
	p.stats.WIBInsertions++
	w.occupancy++
	if w.occupancy > w.peak {
		w.peak = w.occupancy
		p.stats.WIBPeakOccupancy = w.peak
	}
	row := wibRow{rob: rob, seq: e.seq}
	if c >= 0 {
		e.stage = stInWIB
		w.depositRow(c, row)
	} else {
		e.stage = stEligible
		w.addEligible(e.seq, []wibRow{row})
	}
	if e.newPhys != noReg {
		p.setWait(e, c)
	}
}

// setWait is the one way a wait bit is set: e's destination register
// becomes pretend-ready on bit-vector column c (on none when c < 0), and
// the wakeup broadcast tells its consumers (§3.2).
func (p *Processor) setWait(e *robEntry, c int32) {
	r := p.pr(e.destFP, e.newPhys)
	r.wait, r.col = true, c
	if c >= 0 {
		r.colGen = p.wib.gen(c)
	}
	p.wakeWaiters(e.destFP, e.newPhys, true)
}

// unpark is the occupancy counterpart of park, used at reinsertion and
// squash.
func (w *wib) unpark() {
	if w.occupancy == 0 {
		throw(KindWIBUnderflow, 0, "unpark with zero WIB occupancy")
	}
	w.occupancy--
}

// completeColumn converts a column's surviving rows into eligible
// instructions and frees the bit-vector.
func (w *wib) completeColumn(p *Processor, c int32) {
	if c < 0 || int(c) >= len(w.cols) || !w.cols[c].active {
		throw(KindWIBBadColumn, 0, "completing dead bit-vector column %d", c)
	}
	col := &w.cols[c]
	live := w.liveScratch[:0]
	for k := col.head; k != noChunk; k = w.chunks[k].next {
		ch := &w.chunks[k]
		for _, r := range ch.rows[:ch.n] {
			e := p.liveEntry(r.rob, r.seq)
			if e == nil || e.stage != stInWIB || e.wibCol != c {
				continue
			}
			e.stage = stEligible
			live = append(live, r)
		}
	}
	w.addEligible(col.loadSeq, live)
	w.liveScratch = live[:0]
	w.releaseBlocks(c)
	w.dropRows(c)
	col.active = false
	w.free = append(w.free, c)
}

// addEligible routes newly eligible rows into the structure the selection
// policy consumes. live may be a reused scratch buffer: every branch
// copies the rows into policy-owned storage.
func (w *wib) addEligible(loadSeq uint64, live []wibRow) {
	switch {
	case w.cfg.Org == OrgPoolOfBlocks:
		// Deposit (dependence-chain) order, not program order (§3.5).
		w.chainFIFO = append(w.chainFIFO, live...)
	case w.cfg.Banked:
		for _, r := range live {
			w.setEligibleBit(r.rob, r.seq)
		}
	case w.cfg.Policy == PolicyProgramOrder:
		for _, r := range live {
			w.elig.Push(r)
		}
	default: // per-load policies keep group identity
		if len(live) > 0 {
			rows := append([]wibRow(nil), live...)
			slices.SortFunc(rows, func(a, b wibRow) int {
				switch {
				case a.seq < b.seq:
					return -1
				case a.seq > b.seq:
					return 1
				}
				return 0
			})
			w.groups = append(w.groups, wibGroup{loadSeq: loadSeq, rows: rows})
		}
	}
}

// bankOf splits an active-list slot into its bank and its position there.
func (w *wib) bankOf(rob int32) (b, k int32) {
	banks := int32(len(w.banks))
	return rob % banks, rob / banks
}

// setEligibleBit and clearEligibleBit are the only writers of the banked
// eligible set: in when an instruction becomes eligible, out (position k
// of bank b, slot b + k·Banks) at reinsertion and at squash. A second set
// or a clear of a clear bit means the bitmap and the active list disagree
// about who is eligible.
func (w *wib) setEligibleBit(rob int32, seq uint64) {
	b, k := w.bankOf(rob)
	if !w.banks[b].add(k) {
		throw(KindWIBEligibleBit, seq, "seq %d became eligible in slot %d, whose eligible bit is already set", seq, rob)
	}
	w.eligCount++
}

func (w *wib) clearEligibleBit(b, k int32, seq uint64) {
	if !w.banks[b].remove(k) {
		throw(KindWIBEligibleBit, seq, "seq %d leaves the eligible set from slot %d, whose eligible bit is clear", seq, b+k*int32(len(w.banks)))
	}
	w.eligCount--
}

// squashEligible takes a squashed stEligible instruction out of the
// banked eligible set (the row structures of the other organizations drop
// it lazily, by sequence number).
func (w *wib) squashEligible(rob int32, seq uint64) {
	if w.cfg.Banked {
		b, k := w.bankOf(rob)
		w.clearEligibleBit(b, k, seq)
	}
}

// eligibleBitSet reports whether slot rob is in the banked eligible set.
func (w *wib) eligibleBitSet(rob int32) bool {
	b, k := w.bankOf(rob)
	return w.banks[b].has(k)
}

// hasEligible reports whether any structure the selection policies drain
// holds rows. The banked bitmap is exact; the idealized policies' row
// lists are conservative (a stale row only delays fast-forwarding by the
// cycle that drops it).
func (w *wib) hasEligible() bool {
	return w.eligCount > 0 || w.elig.Len() > 0 || len(w.chainFIFO) > 0 || len(w.groups) > 0
}

// reinsert moves up to maxSlots eligible instructions back into the issue
// queues and returns how many dispatch slots were consumed.
func (w *wib) reinsert(p *Processor, maxSlots int) int {
	if maxSlots <= 0 {
		return 0
	}
	if w.cfg.SliceWidth > 0 {
		return w.sliceProcess(p, maxSlots)
	}
	if w.cfg.Org == OrgPoolOfBlocks {
		return w.reinsertChain(p, maxSlots)
	}
	if w.cfg.Banked {
		return w.reinsertBanked(p, maxSlots)
	}
	if w.cfg.AccessLatency > 0 {
		// Non-banked multicycle WIB: one full-width extraction per access,
		// a new access can start every AccessLatency cycles (§4.5).
		if p.now < w.nextAccess {
			return 0
		}
		n := w.reinsertProgramOrder(p, maxSlots)
		if n > 0 {
			w.nextAccess = p.now + w.cfg.AccessLatency
		}
		return n
	}
	switch w.cfg.Policy {
	case PolicyProgramOrder:
		return w.reinsertProgramOrder(p, maxSlots)
	case PolicyRoundRobinLoad:
		return w.reinsertGroups(p, maxSlots, true)
	case PolicyOldestLoad:
		return w.reinsertGroups(p, maxSlots, false)
	default:
		return w.reinsertProgramOrder(p, maxSlots)
	}
}

// tryReinsertRow validates a row and, if its issue queue has room, puts
// it back. Returns (inserted, blocked): blocked means the row is live but
// its queue is full.
func (w *wib) tryReinsertRow(p *Processor, r wibRow) (bool, bool) {
	e := p.liveEntry(r.rob, r.seq)
	if e == nil || e.stage != stEligible {
		return false, false // stale (squashed); drop
	}
	ins := w.tryReinsert(p, r.rob, e)
	return ins, !ins
}

// tryReinsert puts an eligible instruction back into its issue queue, or
// reports false when that queue is full.
func (w *wib) tryReinsert(p *Processor, rob int32, e *robEntry) bool {
	q := p.queueOf(e)
	if q.full() {
		return false
	}
	q.count++
	w.unpark()
	p.stats.WIBReinsertions++
	p.trace(e, func(t *InstrTrace, now int64) { t.Reinserts = append(t.Reinserts, now) })
	// §6 future work: prefetch the sources into the two-level register
	// file's first level so the register-read stage hits.
	if p.cfg.RFPrefetchOnReinsert {
		p.prefetchSources(e)
	}
	// Leaving the WIB clears the destination's wait bit: consumers now
	// synchronize on the true ready bit again (the register stays
	// not-ready until this instruction executes).
	if e.newPhys != noReg {
		p.pr(e.destFP, e.newPhys).clearWait()
	}
	p.registerInIQ(rob)
	return true
}

// reinsertBanked implements the hardware organization: banks of the
// appropriate parity each offer their oldest eligible instruction; issue
// queue slots are granted in sticky round-robin priority order — a bank
// that could not place its instruction keeps top priority, a bank that
// placed one (or had none) drops to the bottom (§3.3.1).
func (w *wib) reinsertBanked(p *Processor, maxSlots int) int {
	if w.eligCount == 0 {
		return 0
	}
	used := 0
	headBank, headRow := w.bankOf(p.robHead)
	// Stable partition of this parity's order into blocked banks (kept in
	// front, compacted in place) and done banks (moved behind them).
	order := w.bankPrio[p.now&1]
	blocked, done := 0, w.prioScratch[:0]
	for _, b := range order {
		if used >= maxSlots {
			// Out of bandwidth: keep relative priority for next time.
			order[blocked] = b
			blocked++
			continue
		}
		if w.banks[b].n == 0 {
			done = append(done, b)
			continue
		}
		k := w.oldestInBank(b, headRow, headBank)
		if k < 0 {
			throw(KindWIBEligibleMap, 0, "bank %d counts %d eligible but its bitmap is empty", b, w.banks[b].n)
		}
		rob := b + k*int32(len(w.banks))
		e := &p.rob[rob]
		if e.stage != stEligible {
			throw(KindWIBEligibleMap, e.seq, "bank %d selected slot %d, which is not eligible (seq %d, %s)",
				b, rob, e.seq, stageNames[e.stage])
		}
		if w.tryReinsert(p, rob, e) {
			w.clearEligibleBit(b, k, e.seq)
			used++
			done = append(done, b)
		} else {
			order[blocked] = b
			blocked++
		}
	}
	if blocked > 0 {
		// With nothing blocked, done already is the order as it stood.
		copy(order[blocked:], done)
	}
	w.prioScratch = done[:0]
	return used
}

// oldestInBank is bank b's priority encoder: the first eligible position
// in ring order from the active-list head, which is the bank's oldest
// eligible instruction because the active list allocates in program
// order. The head is given as (row, bank) = divmod(robHead, Banks); the
// result k names active-list slot b + k·Banks, and is -1 for an empty
// bank.
func (w *wib) oldestInBank(b, headRow, headBank int32) int32 {
	// The bank's first position at or after the head.
	k0 := headRow
	if b < headBank {
		k0++
	}
	return w.banks[b].firstFrom(k0)
}

// reinsertProgramOrder drains the global seq-ordered heap.
func (w *wib) reinsertProgramOrder(p *Processor, maxSlots int) int {
	used := 0
	blocked := w.blockedScratch[:0]
	for used < maxSlots && w.elig.Len() > 0 {
		row := w.elig.Pop()
		ins, blk := w.tryReinsertRow(p, row)
		if ins {
			used++
			continue
		}
		if blk {
			blocked = append(blocked, row)
			// Queue full for this class; younger rows may target the
			// other queue, keep scanning a little.
			if len(blocked) > 8 {
				break
			}
		}
	}
	for _, r := range blocked {
		w.elig.Push(r)
	}
	w.blockedScratch = blocked[:0]
	return used
}

// reinsertChain drains the pool-of-blocks FIFO in deposit order,
// stopping at the first live row whose queue is full (chain order is
// strict in this organization).
func (w *wib) reinsertChain(p *Processor, maxSlots int) int {
	used := 0
	for used < maxSlots && len(w.chainFIFO) > 0 {
		row := w.chainFIFO[0]
		ins, blocked := w.tryReinsertRow(p, row)
		if blocked {
			break
		}
		w.chainFIFO = w.chainFIFO[1:]
		if ins {
			used++
		}
	}
	if len(w.chainFIFO) == 0 && cap(w.chainFIFO) > 1024 {
		w.chainFIFO = nil // release the drained backing array
	}
	return used
}

// reinsertGroups implements the per-completed-load policies: round-robin
// takes one instruction from each completed load in turn; oldest-load
// drains the oldest load's chain first.
func (w *wib) reinsertGroups(p *Processor, maxSlots int, roundRobin bool) int {
	used := 0
	if !roundRobin {
		slices.SortStableFunc(w.groups, func(a, b wibGroup) int { return cmp.Compare(a.loadSeq, b.loadSeq) })
	}
	attempts := 0
	for used < maxSlots && len(w.groups) > 0 && attempts < 4*maxSlots {
		gi := 0
		if roundRobin {
			gi = w.rrNext % len(w.groups)
		}
		g := &w.groups[gi]
		if len(g.rows) == 0 {
			// Free deletion: empty groups must not consume attempt budget
			// or they accumulate faster than they are reaped.
			w.groups = append(w.groups[:gi], w.groups[gi+1:]...)
			continue
		}
		attempts++
		row := g.rows[0]
		ins, blocked := w.tryReinsertRow(p, row)
		if ins || !blocked {
			g.rows = g.rows[1:]
			if len(g.rows) == 0 {
				w.groups = append(w.groups[:gi], w.groups[gi+1:]...)
			}
		}
		if ins {
			used++
		}
		if blocked && !roundRobin {
			break // oldest-load: strict order, stall on a full queue
		}
		if roundRobin {
			w.rrNext++
		}
	}
	return used
}

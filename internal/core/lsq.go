package core

import "slices"

// The load and store queues hold memory operations in program order from
// dispatch to commit. Loads execute speculatively: they forward from the
// youngest older store with a matching (known) address, and speculate past
// older stores whose addresses are still unknown. When a store's address
// resolves, any younger load that already executed with a matching address
// and a stale source triggers a replay trap (squash from the load), and
// the load's PC is entered in the store-wait table so future instances
// wait (21264-style speculative load execution, paper Table 1).

// (Fields are ordered widest first: the searches stride over these.)
type lqEntry struct {
	seq      uint64
	addr     uint64 // 8-byte aligned effective address
	value    uint64
	fwdSeq   uint64 // sequence of the forwarding store; 0 = read memory
	sqPos    uint64 // store-queue tail position at dispatch: stores below it are older
	rob      int32
	executed bool
	valid    bool
}

type sqEntry struct {
	seq    uint64
	addr   uint64
	data   uint64
	lqPos  uint64 // load-queue tail position at dispatch: loads at or above it are younger
	addrOK bool
	dataOK bool
	valid  bool
}

// lsq holds both queues as rings addressed by monotone positions: entry n
// lives in slot n % len, head and tail only ever count up (squash rolls the
// tail back, and every surviving instruction recorded a position at or
// below the new tail, so reuse is unambiguous). Each tail's slot is kept
// beside it, and a live position's slot is found by counting back from
// there (lqSlot, sqSlot), so no search divides. A load records the store
// tail at its dispatch and a store the load tail, which bounds every
// search to the entries that can matter.
//
// Three indexes keep the common searches off the queues entirely; each is
// maintained by the mutators below (resolveStore, executeLoad, release*,
// squash*) and recounted per cycle in Debug runs (checkIndexes):
//
//   - sqUnresolved: the slots of valid stores whose address is not yet
//     known, so the oldest of them is one ring search from the head;
//   - sqAddrs: per hashed address, how many valid stores have resolved to it;
//   - lqAddrs: per hashed address, how many valid loads have executed at it.
type lsq struct {
	lq         []lqEntry
	lqTail     uint64
	lqTailSlot int32 // lqTail % len(lq)
	lqCount    int

	sq             []sqEntry
	sqHead, sqTail uint64
	sqTailSlot     int32 // sqTail % len(sq)
	sqCount        int

	sqUnresolved slotSet
	sqAddrs      addrCounts
	lqAddrs      addrCounts

	recount []uint32 // checkIndexes scratch
}

// addrCounts is a counting filter over 8-byte-aligned addresses: a zero
// bucket proves no queue entry holds the address, a non-zero one means
// "walk the queue".
type addrCounts struct {
	n     []uint32
	shift uint
}

// addrBits sizes a table at four buckets per queue entry (rounded up to
// a power of two), so a full queue still leaves most buckets empty: the
// table has 1<<addrBits(entries) buckets.
func addrBits(entries int) uint {
	bits := uint(4)
	for 1<<bits < 4*entries {
		bits++
	}
	return bits
}

// newAddrCounts lays a table of 1<<bits buckets over the front of n.
func newAddrCounts(n []uint32, bits uint) addrCounts {
	return addrCounts{n: n[: 1<<bits : 1<<bits], shift: 64 - bits}
}

// bucket is Fibonacci hashing of the word address: power-of-two strides
// (page- and line-strided kernels) spread instead of piling up.
func (a *addrCounts) bucket(addr uint64) *uint32 {
	return &a.n[((addr>>3)*0x9E3779B97F4A7C15)>>a.shift]
}

func (a *addrCounts) add(addr uint64)      { *a.bucket(addr)++ }
func (a *addrCounts) remove(addr uint64)   { *a.bucket(addr)-- }
func (a *addrCounts) has(addr uint64) bool { return *a.bucket(addr) != 0 }

func newLSQ(loads, stores int) *lsq {
	sb, lb := addrBits(stores), addrBits(loads)
	counts := make([]uint32, 1<<sb+1<<lb) // both address tables
	return &lsq{
		lq:           make([]lqEntry, loads),
		sq:           make([]sqEntry, stores),
		sqUnresolved: newSlotSet(stores),
		sqAddrs:      newAddrCounts(counts, sb),
		lqAddrs:      newAddrCounts(counts[1<<sb:], lb),
	}
}

func (l *lsq) loadFull() bool  { return l.lqCount == len(l.lq) }
func (l *lsq) storeFull() bool { return l.sqCount == len(l.sq) }

// lqSlot and sqSlot find the slot of a position at most a ring's length
// behind its tail: a compare, not a 64-bit division.
func (l *lsq) lqSlot(pos uint64) int32 { return ringBack(l.lqTailSlot, int32(l.lqTail-pos), len(l.lq)) }
func (l *lsq) sqSlot(pos uint64) int32 { return ringBack(l.sqTailSlot, int32(l.sqTail-pos), len(l.sq)) }

// allocLoad reserves the next load-queue slot in program order. Dispatch
// checks loadFull first, so an allocation into an occupied slot is a
// bookkeeping bug.
func (l *lsq) allocLoad(rob int32, seq uint64) int32 {
	idx := l.lqTailSlot
	if l.lqCount >= len(l.lq) || l.lq[idx].valid {
		throw(KindLSQOverflow, seq, "load queue overflow: alloc seq %d into slot %d (count %d/%d, valid=%v)",
			seq, idx, l.lqCount, len(l.lq), l.lq[idx].valid)
	}
	l.lq[idx] = lqEntry{rob: rob, seq: seq, sqPos: l.sqTail, valid: true}
	l.lqTail++
	l.lqTailSlot = ringAhead(idx, 1, len(l.lq))
	l.lqCount++
	return idx
}

// allocStore reserves the next store-queue slot in program order.
func (l *lsq) allocStore(seq uint64) int32 {
	idx := l.sqTailSlot
	if l.sqCount >= len(l.sq) || l.sq[idx].valid {
		throw(KindLSQOverflow, seq, "store queue overflow: alloc seq %d into slot %d (count %d/%d, valid=%v)",
			seq, idx, l.sqCount, len(l.sq), l.sq[idx].valid)
	}
	l.sq[idx] = sqEntry{seq: seq, lqPos: l.lqTail, valid: true}
	l.sqTail++
	l.sqTailSlot = ringAhead(idx, 1, len(l.sq))
	l.sqCount++
	l.sqUnresolved.add(idx)
	return idx
}

func (l *lsq) load(i int32) *lqEntry  { return &l.lq[i] }
func (l *lsq) store(i int32) *sqEntry { return &l.sq[i] }

// resolveStore publishes a store's address for forwarding and ordering
// checks.
func (l *lsq) resolveStore(i int32, addr uint64) {
	s := &l.sq[i]
	if !s.valid || s.addrOK {
		throw(KindLSQDoubleFree, s.seq, "resolving store-queue slot %d (valid=%v, resolved=%v)", i, s.valid, s.addrOK)
	}
	s.addr = addr
	s.addrOK = true
	l.sqUnresolved.remove(i)
	l.sqAddrs.add(addr)
}

// executeLoad records that a load read its value at addr: from memory
// when fwdSeq is 0, else from the store with that sequence number.
func (l *lsq) executeLoad(i int32, addr, value, fwdSeq uint64) {
	ld := &l.lq[i]
	if !ld.valid || ld.executed {
		throw(KindLSQDoubleFree, ld.seq, "executing load-queue slot %d (valid=%v, executed=%v)", i, ld.valid, ld.executed)
	}
	ld.addr = addr
	ld.executed = true
	ld.value = value
	ld.fwdSeq = fwdSeq
	l.lqAddrs.add(addr)
}

// dropLoad and dropStore invalidate an entry and take it out of the
// indexes; release and squash differ only in which end of the ring moves.
func (l *lsq) dropLoad(i int32, what string) {
	ld := &l.lq[i]
	if !ld.valid {
		throw(KindLSQDoubleFree, ld.seq, "%s invalid load-queue slot %d", what, i)
	}
	ld.valid = false
	if ld.executed {
		l.lqAddrs.remove(ld.addr)
	}
	l.lqCount--
}

func (l *lsq) dropStore(i int32, what string) {
	s := &l.sq[i]
	if !s.valid {
		throw(KindLSQDoubleFree, s.seq, "%s invalid store-queue slot %d", what, i)
	}
	s.valid = false
	if s.addrOK {
		l.sqAddrs.remove(s.addr)
	} else {
		l.sqUnresolved.remove(i)
	}
	l.sqCount--
}

// releaseLoad frees the head load slot at commit.
func (l *lsq) releaseLoad(i int32) {
	l.dropLoad(i, "releasing")
}

// releaseStore frees the head store slot at commit.
func (l *lsq) releaseStore(i int32) {
	l.dropStore(i, "releasing")
	l.sqHead++
}

// squashLoad rolls the tail back over a squashed load (youngest-first
// walk).
func (l *lsq) squashLoad(i int32) {
	l.dropLoad(i, "squashing")
	l.lqTail--
	l.lqTailSlot = ringBack(l.lqTailSlot, 1, len(l.lq))
}

// squashStore rolls the tail back over a squashed store.
func (l *lsq) squashStore(i int32) {
	l.dropStore(i, "squashing")
	l.sqTail--
	l.sqTailSlot = ringBack(l.sqTailSlot, 1, len(l.sq))
}

// checkIndexes recounts the three indexes from the queue slots (Debug
// runs) and throws on the first that disagrees.
func (l *lsq) checkIndexes() {
	unresolved := 0
	want := l.recountInto(&l.sqAddrs)
	for i := range l.sq {
		switch s := &l.sq[i]; {
		case !s.valid:
		case s.addrOK:
			want.add(s.addr)
		default:
			if !l.sqUnresolved.has(int32(i)) {
				throw(KindSQUnresolved, s.seq, "store-queue slot %d is unresolved but not in the unresolved set", i)
			}
			unresolved++
		}
	}
	checkSlotSets(KindSQUnresolved, "unresolved stores", unresolved, l.sqUnresolved)
	if !slices.Equal(want.n, l.sqAddrs.n) {
		throw(KindSQAddrIndex, 0, "resolved-store address counts disagree with the store queue")
	}
	want = l.recountInto(&l.lqAddrs)
	for i := range l.lq {
		if ld := &l.lq[i]; ld.valid && ld.executed {
			want.add(ld.addr)
		}
	}
	if !slices.Equal(want.n, l.lqAddrs.n) {
		throw(KindLQAddrIndex, 0, "executed-load address counts disagree with the load queue")
	}
}

// recountInto returns an all-zero table shaped like a, in reused scratch.
func (l *lsq) recountInto(a *addrCounts) addrCounts {
	if cap(l.recount) < len(a.n) {
		l.recount = make([]uint32, len(a.n))
	}
	n := l.recount[:len(a.n)]
	clear(n)
	return addrCounts{n: n, shift: a.shift}
}

// olderStoreUnknown reports whether any store older than the load in slot
// ld has an unresolved address. The valid stores fill the ring in age
// order from the head's slot, so the oldest unresolved one is the
// unresolved set's first member from there, and it is older than the load
// when it lies within the load's recorded pos - sqHead stores of the head.
func (l *lsq) olderStoreUnknown(ld int32) bool {
	if l.sqUnresolved.n == 0 {
		return false
	}
	head := l.sqSlot(l.sqHead)
	ahead := int(l.sqUnresolved.firstFrom(head) - head)
	if ahead < 0 {
		ahead += len(l.sq)
	}
	return uint64(ahead) < l.lq[ld].sqPos-l.sqHead
}

// forward finds the youngest store older than the load in slot ld with a
// known matching address, walking back from the load's own store-queue
// position (the gem5 O3 LSQ search order) so the first match is the
// answer. Store addresses resolve before data (split STA/STD, as on the
// 21264); a match whose data has not arrived yet reports dataOK=false and
// the load must stall.
func (l *lsq) forward(ld int32, addr uint64) (value uint64, fwdSeq uint64, found, dataOK bool) {
	if !l.sqAddrs.has(addr) {
		return 0, 0, false, false
	}
	pos := l.lq[ld].sqPos
	i := int(l.sqSlot(pos))
	for n := pos - l.sqHead; n > 0; n-- {
		if i == 0 {
			i = len(l.sq)
		}
		i--
		if s := &l.sq[i]; s.addrOK && s.addr == addr {
			return s.data, s.seq, true, s.dataOK
		}
	}
	return 0, 0, false, false
}

// checkViolation finds the oldest load younger than the store in slot st
// that already executed with a matching address and did not get its value
// from this store or a younger one. It returns that load's ROB index. The
// walk starts at the store's own load-queue position (every load from
// there to the tail is valid and younger), oldest first, so the first hit
// is the answer.
func (l *lsq) checkViolation(st int32, addr uint64) (rob int32, seq uint64, found bool) {
	if !l.lqAddrs.has(addr) {
		return 0, 0, false
	}
	s := &l.sq[st]
	i := int(l.lqSlot(s.lqPos))
	for n := l.lqTail - s.lqPos; n > 0; n-- {
		ld := &l.lq[i]
		// fwdSeq >= the store's seq: masked by a younger store's value.
		if ld.executed && ld.addr == addr && ld.fwdSeq < s.seq {
			return ld.rob, ld.seq, true
		}
		if i++; i == len(l.lq) {
			i = 0
		}
	}
	return 0, 0, false
}

// storeWait is the 2048-entry load-wait predictor of the 21264: a bit per
// (hashed) load PC, set on a replay trap, cleared periodically (every
// 32768 cycles in Table 1).
type storeWait struct {
	bits      []bool
	mask      uint64
	interval  int64
	nextClear int64
}

func newStoreWait(entries int, interval int64) storeWait {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("core: store-wait entries must be a positive power of two")
	}
	return storeWait{
		bits:      make([]bool, entries),
		mask:      uint64(entries - 1),
		interval:  interval,
		nextClear: interval,
	}
}

// tick clears the table when its interval is up, and reports whether it
// did.
func (s *storeWait) tick(now int64) bool {
	if s.interval <= 0 || now < s.nextClear {
		return false
	}
	clear(s.bits)
	s.nextClear = now + s.interval
	return true
}

// fastForward replays tick for every cycle up to and including upto in
// closed form: one clear at nextClear (if reached), then one per interval,
// leaving nextClear exactly where consecutive ticks would have.
func (s *storeWait) fastForward(upto int64) {
	if s.interval <= 0 || upto < s.nextClear {
		return
	}
	for i := range s.bits {
		s.bits[i] = false
	}
	n := (upto - s.nextClear) / s.interval
	s.nextClear += (n + 1) * s.interval
}

func (s *storeWait) predictsWait(pc uint64) bool { return s.bits[pc&s.mask] }
func (s *storeWait) set(pc uint64)               { s.bits[pc&s.mask] = true }

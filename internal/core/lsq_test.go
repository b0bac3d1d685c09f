package core

import (
	"math/rand"
	"testing"
)

func TestLSQAllocRelease(t *testing.T) {
	l := newLSQ(2, 2)
	if l.loadFull() || l.storeFull() {
		t.Fatal("fresh LSQ full")
	}
	a := l.allocLoad(1, 10)
	b := l.allocLoad(2, 11)
	if !l.loadFull() {
		t.Error("LQ should be full")
	}
	l.releaseLoad(a)
	if l.loadFull() {
		t.Error("LQ still full after release")
	}
	c := l.allocLoad(3, 12) // wraps
	if c == b {
		t.Error("allocated occupied slot")
	}
}

// resolvedStore allocates a store and resolves its address (and, when
// dataOK, its data) through the LSQ's mutators, so the indexes see it.
func resolvedStore(l *lsq, seq, addr, data uint64, dataOK bool) int32 {
	i := l.allocStore(seq)
	l.resolveStore(i, addr)
	l.store(i).data, l.store(i).dataOK = data, dataOK
	return i
}

func TestLSQForwardYoungestOlder(t *testing.T) {
	l := newLSQ(4, 4)
	// Program order: st 10, ld 15, st 20, ld 25, st 30, ld 35.
	resolvedStore(l, 10, 0x100, 111, true)
	ld15 := l.allocLoad(2, 15)
	s2 := resolvedStore(l, 20, 0x100, 222, true)
	ld25 := l.allocLoad(4, 25)
	resolvedStore(l, 30, 0x200, 333, true)
	ld35 := l.allocLoad(6, 35)

	// The load at seq 25 to 0x100 forwards from store 20 (youngest older).
	v, fs, ok, dataOK := l.forward(ld25, 0x100)
	if !ok || !dataOK || v != 222 || fs != 20 {
		t.Errorf("forward = (%d,%d,%v,%v), want (222,20,true,true)", v, fs, ok, dataOK)
	}
	// The load at seq 15 sees only store 10.
	v, fs, ok, dataOK = l.forward(ld15, 0x100)
	if !ok || !dataOK || v != 111 || fs != 10 {
		t.Errorf("forward = (%d,%d,%v,%v), want (111,10,true,true)", v, fs, ok, dataOK)
	}
	// Store 30 is younger than load 25: no forwarding from it.
	if _, _, ok, _ = l.forward(ld25, 0x200); ok {
		t.Error("forwarded from younger store")
	}
	if v, _, ok, _ = l.forward(ld35, 0x200); !ok || v != 333 {
		t.Errorf("load 35 forward = (%d,%v), want (333,true)", v, ok)
	}
	// No match for other address.
	if _, _, ok, _ = l.forward(ld25, 0x300); ok {
		t.Error("forwarded from non-matching store")
	}
	// A matching store whose data is pending reports dataOK=false.
	l.store(s2).dataOK = false
	if _, _, ok, dataOK = l.forward(ld25, 0x100); !ok || dataOK {
		t.Errorf("pending-data forward = (%v,%v), want (true,false)", ok, dataOK)
	}
	l.checkIndexes()
}

func TestLSQOlderStoreUnknown(t *testing.T) {
	l := newLSQ(4, 4)
	early := l.allocLoad(0, 5)
	s1 := l.allocStore(10)
	late := l.allocLoad(2, 20)
	if !l.olderStoreUnknown(late) {
		t.Error("unresolved older store not detected")
	}
	if l.olderStoreUnknown(early) {
		t.Error("younger store reported as older")
	}
	l.resolveStore(s1, 0x40)
	if l.olderStoreUnknown(late) {
		t.Error("resolved store still reported unknown")
	}
	// An unresolved store younger than the load keeps the count non-zero
	// but must not hold the load.
	l.allocStore(30)
	if l.olderStoreUnknown(late) {
		t.Error("younger unresolved store held an older load")
	}
	l.checkIndexes()
}

func TestLSQViolation(t *testing.T) {
	l := newLSQ(4, 4)
	// Program order: st 20, ld 30, st 45, ld 50, ld 60, st 70. The loads
	// executed to 0x100: 30 and 60 read memory (fwdSeq 0), 50 forwarded
	// from a store at seq 40 that has since committed.
	s20 := l.allocStore(20)
	la := l.allocLoad(5, 30)
	s45 := l.allocStore(45)
	lb := l.allocLoad(6, 50)
	lc := l.allocLoad(7, 60)
	s70 := l.allocStore(70)
	l.executeLoad(la, 0x100, 1, 0)
	l.executeLoad(lb, 0x100, 2, 40)
	l.executeLoad(lc, 0x100, 3, 0)

	// Store 20 resolves to 0x100: loads 30 and 60 are stale (fwdSeq < 20),
	// load 50 is masked by store 40. Oldest stale is 30.
	rob, seq, found := l.checkViolation(s20, 0x100)
	if !found || seq != 30 || rob != 5 {
		t.Errorf("violation = (%d,%d,%v), want (5,30,true)", rob, seq, found)
	}
	// Store 45: load 50's fwdSeq 40 < 45 → stale; load 60 too. Oldest is 50.
	_, seq, found = l.checkViolation(s45, 0x100)
	if !found || seq != 50 {
		t.Errorf("violation seq = %d, want 50", seq)
	}
	// Older loads are never violated.
	if _, _, found = l.checkViolation(s70, 0x100); found {
		t.Error("violation reported for loads older than store")
	}
	// Non-matching address.
	if _, _, found = l.checkViolation(s20, 0x200); found {
		t.Error("violation on non-matching address")
	}
	l.checkIndexes()

	// Unexecuted loads don't violate.
	l2 := newLSQ(4, 4)
	st := l2.allocStore(20)
	l2.allocLoad(5, 30)
	if _, _, found = l2.checkViolation(st, 0x100); found {
		t.Error("violation on unexecuted load")
	}
}

func TestLSQSquashRollsTail(t *testing.T) {
	l := newLSQ(4, 4)
	l.allocLoad(1, 10)
	b := l.allocLoad(2, 20)
	c := l.allocLoad(3, 30)
	l.squashLoad(c)
	l.squashLoad(b)
	if l.lqCount != 1 {
		t.Errorf("count = %d, want 1", l.lqCount)
	}
	d := l.allocLoad(4, 40)
	if d != b {
		t.Errorf("tail not rolled back: got slot %d, want %d", d, b)
	}
}

// --- reference oracles ---
//
// The linear scans the indexed searches replaced, kept as the definition
// of the right answer: every valid slot is visited and compared by
// sequence number, with no use of the recorded positions or the address
// counts.

func refOlderStoreUnknown(l *lsq, seq uint64) bool {
	for i := range l.sq {
		s := &l.sq[i]
		if !s.valid || s.seq >= seq {
			continue
		}
		if !s.addrOK {
			return true
		}
	}
	return false
}

func refForward(l *lsq, seq uint64, addr uint64) (value uint64, fwdSeq uint64, found, dataOK bool) {
	for i := range l.sq {
		s := &l.sq[i]
		if !s.valid || s.seq >= seq || !s.addrOK || s.addr != addr {
			continue
		}
		if s.seq > fwdSeq || !found {
			value, fwdSeq, found, dataOK = s.data, s.seq, true, s.dataOK
		}
	}
	return value, fwdSeq, found, dataOK
}

func refCheckViolation(l *lsq, storeSeq uint64, addr uint64) (rob int32, seq uint64, found bool) {
	for i := range l.lq {
		ld := &l.lq[i]
		if !ld.valid || ld.seq <= storeSeq || !ld.executed || ld.addr != addr {
			continue
		}
		if ld.fwdSeq >= storeSeq {
			continue // masked by a younger store's forwarded value
		}
		if !found || ld.seq < seq {
			rob, seq, found = ld.rob, ld.seq, true
		}
	}
	return rob, seq, found
}

// memOp is the differential test's view of one in-flight memory
// instruction, kept in program order.
type memOp struct {
	seq     uint64
	isStore bool
	slot    int32
}

// TestLSQDifferential drives the LSQ with seeded random dispatch /
// resolve / data-arrival / execute / commit / squash sequences on queues
// small enough (and not power-of-two sized) to wrap every few steps, and
// requires the indexed searches to agree with the linear-scan oracles on
// every query, and the indexes to survive a recount after every step.
func TestLSQDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		l := newLSQ(5, 7)
		var ops []memOp // program order, oldest first
		seq := uint64(1)
		addrOf := func() uint64 { return uint64(rng.Intn(6)) * 8 } // few addresses: matches are common
		squashFrom := func(k int) {
			for i := len(ops) - 1; i >= k; i-- {
				if ops[i].isStore {
					l.squashStore(ops[i].slot)
				} else {
					l.squashLoad(ops[i].slot)
				}
			}
			ops = ops[:k]
		}
		queries, hits, violations := 0, 0, 0
		for step := 0; step < 60_000; step++ {
			switch r := rng.Intn(100); {
			case r < 22: // dispatch a load
				if !l.loadFull() {
					ops = append(ops, memOp{seq: seq, slot: l.allocLoad(int32(seq%97), seq)})
					seq++
				}
			case r < 40: // dispatch a store
				if !l.storeFull() {
					ops = append(ops, memOp{seq: seq, isStore: true, slot: l.allocStore(seq)})
					seq++
				}
			case r < 58: // a store's address resolves; a violating load replays
				if op, ok := pickOp(rng, ops, func(o memOp) bool { return o.isStore && !l.store(o.slot).addrOK }); ok {
					addr := addrOf()
					l.resolveStore(op.slot, addr)
					gr, gs, gf := l.checkViolation(op.slot, addr)
					wr, ws, wf := refCheckViolation(l, op.seq, addr)
					if gr != wr || gs != ws || gf != wf {
						t.Fatalf("seed %d step %d: checkViolation(seq %d, %#x) = (%d,%d,%v), oracle (%d,%d,%v)",
							seed, step, op.seq, addr, gr, gs, gf, wr, ws, wf)
					}
					if gf {
						violations++
						for k, o := range ops {
							if o.seq == gs {
								squashFrom(k) // replay trap: squash from the load, inclusive
								break
							}
						}
					}
				}
			case r < 66: // a store's data arrives
				if op, ok := pickOp(rng, ops, func(o memOp) bool { return o.isStore && !l.store(o.slot).dataOK }); ok {
					l.store(op.slot).data, l.store(op.slot).dataOK = rng.Uint64(), true
				}
			case r < 88: // a load attempts to issue (deferred loads retry later)
				if op, ok := pickOp(rng, ops, func(o memOp) bool { return !o.isStore && !l.load(o.slot).executed }); ok {
					addr := addrOf()
					if g, w := l.olderStoreUnknown(op.slot), refOlderStoreUnknown(l, op.seq); g != w {
						t.Fatalf("seed %d step %d: olderStoreUnknown(seq %d) = %v, oracle %v", seed, step, op.seq, g, w)
					}
					gv, gs, gf, gd := l.forward(op.slot, addr)
					wv, ws, wf, wd := refForward(l, op.seq, addr)
					if gf != wf || (gf && (gv != wv || gs != ws || gd != wd)) {
						t.Fatalf("seed %d step %d: forward(seq %d, %#x) = (%d,%d,%v,%v), oracle (%d,%d,%v,%v)",
							seed, step, op.seq, addr, gv, gs, gf, gd, wv, ws, wf, wd)
					}
					queries++
					switch {
					case gf && gd:
						hits++
						l.executeLoad(op.slot, addr, gv, gs)
					case !gf:
						l.executeLoad(op.slot, addr, 0, 0)
					}
				}
			case r < 96: // commit the oldest instruction if it has finished
				if len(ops) > 0 {
					if o := ops[0]; o.isStore && l.store(o.slot).addrOK && l.store(o.slot).dataOK {
						l.releaseStore(o.slot)
						ops = ops[1:]
					} else if !o.isStore && l.load(o.slot).executed {
						l.releaseLoad(o.slot)
						ops = ops[1:]
					}
				}
			default: // branch misprediction: squash a random suffix
				if len(ops) > 0 {
					squashFrom(rng.Intn(len(ops) + 1))
				}
			}
			l.checkIndexes()
		}
		if l.lqTail < 20*uint64(len(l.lq)) || l.sqTail < 20*uint64(len(l.sq)) {
			t.Errorf("seed %d: queues barely wrapped (lq pos %d, sq pos %d)", seed, l.lqTail, l.sqTail)
		}
		if hits == 0 || violations == 0 || hits == queries {
			t.Errorf("seed %d: %d forward queries, %d hits, %d violations — a case went unexercised", seed, queries, hits, violations)
		}
	}
}

// pickOp returns a uniformly random in-flight op satisfying keep.
func pickOp(rng *rand.Rand, ops []memOp, keep func(memOp) bool) (memOp, bool) {
	n := 0
	var picked memOp
	for _, o := range ops {
		if keep(o) {
			n++
			if rng.Intn(n) == 0 {
				picked = o
			}
		}
	}
	return picked, n > 0
}

func TestStoreWaitTable(t *testing.T) {
	s := newStoreWait(16, 100)
	if s.predictsWait(5) {
		t.Error("fresh table predicts wait")
	}
	s.set(5)
	if !s.predictsWait(5) {
		t.Error("set bit not visible")
	}
	if !s.predictsWait(21) { // aliases 5 mod 16
		t.Error("aliasing not applied")
	}
	s.tick(50)
	if !s.predictsWait(5) {
		t.Error("cleared too early")
	}
	s.tick(100)
	if s.predictsWait(5) {
		t.Error("not cleared at interval")
	}
}

func TestStoreWaitBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-power-of-two table")
		}
	}()
	newStoreWait(12, 100)
}

package core

import (
	"math/rand"
	"testing"

	"largewindow/internal/isa"
)

// harnessed builds a WIB processor with a few parked instructions so the
// reinsertion machinery can be exercised directly.
func parkChain(t *testing.T, cfg Config, n int) *Processor {
	t.Helper()
	// A chain of n dependent adds behind a cache-missing load, iterated
	// so the code lines are warm in the I-cache while the data address
	// advances to a fresh line (and page) every iteration.
	b := isa.NewBuilder("chain")
	far := b.Alloc(1 << 22)
	b.LiAddr(isa.S0, far)
	b.Li(isa.A0, 0)
	b.Loop(isa.S5, 6, func() {
		b.Ld(isa.T0, isa.S0, 0) // misses to memory
		for i := 0; i < n; i++ {
			b.Addi(isa.T0, isa.T0, 1)
		}
		b.Add(isa.A0, isa.A0, isa.T0)
		b.Li64(isa.T1, 512*1024)
		b.Add(isa.S0, isa.S0, isa.T1)
	})
	b.Halt()
	p, err := New(cfg, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestChainParksAndDrains(t *testing.T) {
	cfg := WIBConfigSized(256, 0)
	p := parkChain(t, cfg, 64)
	// Run until a later iteration parks a deep chain (code warm by then).
	deep := false
	for i := 0; i < 20000 && !deep; i++ {
		p.cycle()
		if p.wib.occupancy >= 32 {
			deep = true
			// The issue queue must NOT be clogged by the chain (that is
			// the whole point of the WIB).
			if p.intIQ.count > 24 {
				t.Errorf("issue queue holds %d entries with %d parked", p.intIQ.count, p.wib.occupancy)
			}
		}
	}
	if !deep {
		t.Fatalf("chain never parked deeply:\n%s", p.DebugDump(8))
	}
	// Run to completion: everything drains and commits the right value.
	if _, err := p.Run(0, 2_000_000); err != nil {
		t.Fatalf("%v\n%s", err, p.DebugDump(12))
	}
	if p.wib.occupancy != 0 {
		t.Errorf("WIB occupancy %d after halt", p.wib.occupancy)
	}
	if got := p.regs[0].committed(int(isa.A0)); got != 6*64 {
		t.Errorf("A0 = %d, want %d", got, 6*64)
	}
}

func TestBankParityAlternates(t *testing.T) {
	// With the banked organization, even banks deliver on one cycle
	// parity and odd banks on the other; a bank therefore delivers at
	// most one instruction every two cycles.
	cfg := WIBConfigSized(256, 0)
	p := parkChain(t, cfg, 100)
	for i := 0; i < 20000 && p.wib.occupancy < 40; i++ {
		p.cycle()
	}
	if p.wib.occupancy < 40 {
		t.Skip("chain did not park deeply enough")
	}
	// Let the load complete, then watch two consecutive reinsertion
	// cycles: rows from the same bank must not appear twice in one cycle.
	before := p.stats.WIBReinsertions
	for i := 0; i < 600 && p.stats.WIBReinsertions == before; i++ {
		p.cycle()
	}
	if p.stats.WIBReinsertions == before {
		t.Fatal("no reinsertions observed")
	}
	// Structural property of the mechanism: each parity's priority list
	// holds exactly the banks of that parity, so reinsertBanked can only
	// reach banks matching the cycle parity.
	for parity, order := range p.wib.bankPrio {
		if len(order) != p.wib.cfg.Banks/2 {
			t.Errorf("parity %d ranks %d banks, want %d", parity, len(order), p.wib.cfg.Banks/2)
		}
		for _, bnk := range order {
			if int(bnk)&1 != parity {
				t.Errorf("bank %d ranked under parity %d", bnk, parity)
			}
		}
	}
	// A serial 100-instruction chain must take >= 2 cycles per dependent
	// instruction end-to-end through reinsertion; just require completion.
	if _, err := p.Run(0, 1_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestStickyPriorityBlockedBankKeepsRank(t *testing.T) {
	w := newWIB(WIBConfig{Entries: 64, Banked: true, Banks: 4}, 64, 32)
	// Construct a fake processor context: use a real one for queueOf etc.
	b := isa.NewBuilder("x")
	b.Halt()
	p, err := New(WIBConfigSized(64, 0), b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	p.wib = w
	// Fabricate two eligible entries in banks 0 and 2 (even parity) and
	// fill the int IQ so both are blocked.
	p.intIQ.count = p.intIQ.size
	for _, rob := range []int32{0, 2} {
		e := &p.rob[rob]
		e.seq = uint64(rob) + 1
		e.stage = stEligible
		e.intIQ = true
		e.newPhys = noReg
		e.src1Phys = noReg
		e.src2Phys = noReg
		w.setEligibleBit(rob, e.seq)
		w.occupancy++ // keep accounting consistent with the fabricated rows
	}
	p.now = 2 // even parity
	if used := w.reinsertBanked(p, 8); used != 0 {
		t.Fatalf("blocked banks inserted %d", used)
	}
	// Banks 0 and 2 were blocked, so they kept their rank among the even
	// banks; the odd banks were not reachable and did not move.
	if even := w.bankPrio[0]; even[0] != 0 || even[1] != 2 {
		t.Errorf("blocked banks lost priority: order %v", w.bankPrio)
	}
	// Free the queue: the blocked banks deliver first.
	p.intIQ.count = 0
	if used := w.reinsertBanked(p, 8); used != 2 {
		t.Errorf("freed banks inserted %d, want 2", used)
	}
}

func TestWIBPeakOccupancyTracked(t *testing.T) {
	cfg := WIBConfigSized(256, 0)
	p := parkChain(t, cfg, 80)
	if _, err := p.Run(0, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if p.stats.WIBPeakOccupancy < 40 {
		t.Errorf("peak occupancy %d, expected a deep chain", p.stats.WIBPeakOccupancy)
	}
}

// --- reference oracle for the banked select ---
//
// The banked organization used to keep, per bank, an unordered list of
// (slot, seq) rows and find the oldest live one by scanning and compacting
// the whole list on every access. That scan is the definition of the right
// answer for the bitmap priority encoder.

func refOldestInBank(p *Processor, rows *[]wibRow) (wibRow, bool) {
	best := -1
	out := (*rows)[:0]
	for _, r := range *rows {
		e := p.liveEntry(r.rob, r.seq)
		if e == nil || e.stage != stEligible {
			continue // stale; drop during compaction
		}
		out = append(out, r)
		if best == -1 || r.seq < out[best].seq {
			best = len(out) - 1
		}
	}
	*rows = out
	if best == -1 {
		return wibRow{}, false
	}
	return out[best], true
}

// bankedDriver drives a banked WIB through its production entry points
// (park, completeColumn, reinsertBanked, squashFrom) on a
// hand-advanced active list, shadowing the eligible set as per-bank row
// lists for the oracle.
type bankedDriver struct {
	t      *testing.T
	p      *Processor
	rng    *rand.Rand
	cols   []int32 // active bit-vector columns
	shadow [][]wibRow
	seen   map[wibRow]bool

	compared, found, wrapped int
}

func (d *bankedDriver) slot(i int32) int32 { return (d.p.robHead + i) % int32(len(d.p.rob)) }

// queued picks a random instruction still in an issue queue.
func (d *bankedDriver) queued() (int32, *robEntry, bool) {
	p := d.p
	if p.robCount == 0 {
		return 0, nil, false
	}
	start := d.rng.Int31n(p.robCount)
	for i := int32(0); i < p.robCount && i < 64; i++ {
		idx := d.slot((start + i) % p.robCount)
		if e := &p.rob[idx]; e.stage == stWaiting || e.stage == stRequest {
			return idx, e, true
		}
	}
	return 0, nil, false
}

// waitingEntry is a hand-dispatched instruction for the select drivers:
// queued and waiting, with no registers, LSQ slots or bit-vectors to undo
// at squash.
func waitingEntry(seq uint64, intIQ bool) robEntry {
	return robEntry{seq: seq, stage: stWaiting, archDest: -1, newPhys: noReg, oldPhys: noReg,
		src1Phys: noReg, src2Phys: noReg, lq: noReg, sq: noReg, wibCol: -1, ownCol: -1, intIQ: intIQ}
}

func (d *bankedDriver) dispatch() {
	p := d.p
	for n := 1 + d.rng.Intn(8); n > 0 && p.robCount < int32(len(p.rob)); n-- {
		e := &p.rob[p.robTail]
		*e = waitingEntry(p.nextSeq, d.rng.Intn(3) > 0)
		if p.queueOf(e).full() {
			e.stage = stFree
			return
		}
		p.queueOf(e).count++
		p.nextSeq++
		p.robTail = (p.robTail + 1) % int32(len(p.rob))
		p.robCount++
	}
}

// leaveQueue is the driver's stand-in for a select grant: the entry gives
// up its issue-queue slot and (if reinsertion left it requesting) its
// request bit.
func (d *bankedDriver) leaveQueue(idx int32, e *robEntry) {
	q := d.p.queueOf(e)
	q.req.remove(idx)
	q.count--
}

func (d *bankedDriver) park() {
	for n := 1 + d.rng.Intn(6); n > 0; n-- {
		idx, e, ok := d.queued()
		if !ok {
			return
		}
		d.leaveQueue(idx, e)
		if len(d.cols) > 0 && d.rng.Intn(10) < 8 {
			d.p.wib.park(d.p, idx, e, d.cols[d.rng.Intn(len(d.cols))])
		} else {
			d.p.wib.park(d.p, idx, e, -1)
		}
	}
}

func (d *bankedDriver) commit() {
	p := d.p
	for n := 1 + d.rng.Intn(8); n > 0 && p.robCount > 0; n-- {
		e := &p.rob[p.robHead]
		if e.stage != stWaiting && e.stage != stRequest {
			return
		}
		d.leaveQueue(p.robHead, e)
		e.stage = stFree
		p.robHead = (p.robHead + 1) % int32(len(p.rob))
		p.robCount--
	}
}

// sync appends newly eligible instructions to the shadow lists, then
// compares every bank's select with the oracle's scan.
func (d *bankedDriver) sync(step int) {
	p, w := d.p, d.p.wib
	banks := w.cfg.Banks
	for i := int32(0); i < p.robCount; i++ {
		idx := d.slot(i)
		if e := &p.rob[idx]; e.stage == stEligible {
			if r := (wibRow{rob: idx, seq: e.seq}); !d.seen[r] {
				d.seen[r] = true
				d.shadow[int(idx)%banks] = append(d.shadow[int(idx)%banks], r)
			}
		}
	}
	headBank, headRow := w.bankOf(p.robHead)
	for b := 0; b < banks; b++ {
		want, ok := refOldestInBank(p, &d.shadow[b])
		d.compared++
		if has := w.banks[b].n > 0; has != ok {
			d.t.Fatalf("step %d bank %d: bitmap non-empty=%v, oracle found=%v", step, b, has, ok)
		}
		if !ok {
			continue
		}
		d.found++
		got := int32(b) + w.oldestInBank(int32(b), headRow, headBank)*int32(banks)
		if got != want.rob || p.rob[got].seq != want.seq {
			d.t.Fatalf("step %d bank %d (head %d): selected slot %d (seq %d), oracle slot %d (seq %d)",
				step, b, p.robHead, got, p.rob[got].seq, want.rob, want.seq)
		}
		if got < p.robHead {
			d.wrapped++
		}
	}
	// Reinserted and squashed rows leave the shadow at the next compaction;
	// forget them so a slot's next tenant is picked up again.
	for r := range d.seen {
		if e := p.liveEntry(r.rob, r.seq); e == nil || e.stage != stEligible {
			delete(d.seen, r)
		}
	}
}

// TestBankedSelectDifferential checks the bitmap priority encoder against
// the linear-scan oracle at every step of seeded random park / complete /
// reinsert / commit / squash sequences, on geometries with two full words
// per bank, a partial second word, and a non-power-of-two bank count, with
// the active list wrapping several times and the per-cycle invariants on.
func TestBankedSelectDifferential(t *testing.T) {
	for _, g := range []struct{ entries, banks, steps int }{{2048, 16, 12_000}, {1200, 16, 12_000}, {96, 6, 30_000}} {
		cfg := WIBConfigSized(g.entries, 0)
		cfg.WIB.Banks = g.banks
		b := isa.NewBuilder("idle")
		b.Halt()
		p, err := New(cfg, b.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		d := &bankedDriver{t: t, p: p, rng: rand.New(rand.NewSource(int64(g.entries))),
			shadow: make([][]wibRow, g.banks), seen: map[wibRow]bool{}}
		w := p.wib
		dispatched := uint64(0)
		for step := 0; step < g.steps; step++ {
			switch r := d.rng.Intn(100); {
			case r < 30:
				before := p.nextSeq
				d.dispatch()
				dispatched += p.nextSeq - before
			case r < 50:
				d.park()
			case r < 55: // a load misses: claim a bit-vector
				if len(d.cols) < 12 {
					if c, ok := w.allocColumn(p.nextSeq); ok {
						d.cols = append(d.cols, c)
					}
				}
			case r < 63: // a miss returns: its rows become eligible
				if n := len(d.cols); n > 0 {
					i := d.rng.Intn(n)
					w.completeColumn(p, d.cols[i])
					d.cols[i] = d.cols[n-1]
					d.cols = d.cols[:n-1]
				}
			case r < 80: // one reinsertion cycle
				p.now++
				w.reinsertBanked(p, cfg.DecodeWidth)
			case r < 95:
				d.commit()
			default: // squash a random suffix of the active list
				if p.robCount > 0 {
					p.squashFrom(p.rob[d.slot(d.rng.Int31n(p.robCount))].seq, true)
				}
			}
			d.sync(step)
			p.checkInvariants()
		}
		t.Logf("WIB/%d×%d banks: %d selects compared, %d non-empty, %d wrapped past slot 0, %d dispatched",
			g.entries, g.banks, d.compared, d.found, d.wrapped, dispatched)
		if dispatched < 2*uint64(g.entries) || d.found == 0 || d.wrapped == 0 {
			t.Errorf("WIB/%d: the ring-wrap or the non-empty case went unexercised", g.entries)
		}
	}
}

// TestEligibleBitMisuseThrows: the old row lists dropped a missing row
// silently; the bitmap refuses both a double set and a clear of a clear
// bit with a typed error.
func TestEligibleBitMisuseThrows(t *testing.T) {
	kindOf := func(f func()) (kind ErrKind) {
		defer func() {
			if sp, ok := recover().(*SimPanic); ok {
				kind = sp.Kind
			}
		}()
		f()
		return ""
	}
	w := newWIB(WIBConfig{Entries: 64, Banked: true, Banks: 4}, 64, 32)
	if k := kindOf(func() { w.clearEligibleBit(1, 3, 7) }); k != KindWIBEligibleBit {
		t.Errorf("clearing a clear bit: kind %q, want %q", k, KindWIBEligibleBit)
	}
	w.setEligibleBit(13, 7) // bank 1, bit 3
	if k := kindOf(func() { w.setEligibleBit(13, 7) }); k != KindWIBEligibleBit {
		t.Errorf("setting a set bit: kind %q, want %q", k, KindWIBEligibleBit)
	}
	w.clearEligibleBit(1, 3, 7)
	if w.eligCount != 0 || w.banks[1].n != 0 || w.hasEligible() {
		t.Errorf("counts after set+clear: total %d, bank %d", w.eligCount, w.banks[1].n)
	}
}

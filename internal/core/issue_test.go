package core

import (
	"math/rand"
	"testing"

	"largewindow/internal/heap"
	"largewindow/internal/isa"
)

// The request queue the bitmap replaced, kept as its oracle: a min-heap of
// (seq, slot) items that is never told when a requester is squashed or
// stops requesting — stale items are recognised at pop time — with a
// set-aside list for requests that lose functional-unit arbitration and a
// deferred list for loads that fail a structural check.

type readyItem struct {
	seq uint64
	rob int32
}

type refIssueQueue struct {
	ready    heap.Heap[readyItem]
	deferred []readyItem
}

func newRefIssueQueue() *refIssueQueue {
	return &refIssueQueue{ready: heap.New(func(a, b readyItem) bool { return a.seq < b.seq })}
}

func (r *refIssueQueue) request(seq uint64, rob int32) { r.ready.Push(readyItem{seq, rob}) }

// selectPass is the old issue(): re-request the deferred loads, then pop
// oldest-first until width are granted, skipping stale items, and put the
// set-aside requests back.
func (r *refIssueQueue) selectPass(p *Processor, width int, try func(rob int32) verdict) {
	pending := r.deferred
	r.deferred = nil
	for _, it := range pending {
		if e := p.liveEntry(it.rob, it.seq); e != nil && e.stage == stRequest {
			r.ready.Push(it)
		}
	}
	var setAside []readyItem
	for issued := 0; issued < width && r.ready.Len() > 0; {
		item := r.ready.Pop()
		e := p.liveEntry(item.rob, item.seq)
		if e == nil || e.stage != stRequest {
			continue // squashed or moved since requesting
		}
		switch try(item.rob) {
		case vGrant, vGrantWake:
			p.intIQ.count--
			issued++
		case vSetAside:
			setAside = append(setAside, item)
		case vDefer:
			r.deferred = append(r.deferred, item)
		}
	}
	for _, it := range setAside {
		r.ready.Append(it)
	}
	if len(setAside) > 0 {
		r.ready.Init()
	}
}

// verdict is what the select decides for one request it meets.
type verdict int

const (
	vGrant     verdict = iota
	vGrantWake         // granted, and a younger waiting entry requests mid-pass
	vSetAside          // no functional unit: keeps requesting
	vDefer             // structural load condition: keeps requesting
	vStale             // an operand went away: back to waiting
)

// verdictOf is a pure function of the pass and the instruction, so an
// oracle that meets a duplicate item twice decides it the same way.
func verdictOf(pass int, seq uint64) (verdict, int32) {
	h := (uint64(pass)*0x9e3779b97f4a7c15 ^ seq*0xc2b2ae3d27d4eb4f) * 0xff51afd7ed558ccd
	h ^= h >> 33
	reach := int32(h>>40)%90 + 1
	switch r := h % 100; {
	case r < 40:
		return vGrant, 0
	case r < 58:
		return vGrantWake, reach
	case r < 76:
		return vSetAside, 0
	case r < 94:
		return vDefer, 0
	default:
		return vStale, 0
	}
}

// selectWorld is one machine under the driver: the production world keeps
// its requests in p.intIQ's bitmap, the oracle's world in ref.
type selectWorld struct {
	t       *testing.T
	p       *Processor
	ref     *refIssueQueue // nil in the production world
	granted []uint64       // grant order, all passes
	woken   map[uint64]int // seq -> pass in which a grant made it request
	sameOK  int            // woken entries granted in the pass that woke them
	wrapped int            // grants from slots below the head (past the wrap)
}

// request makes slot idx request. A second request of a requesting entry
// reaches the bitmap (which must ignore it); the old queue never saw one,
// because wakeup skips entries already in stRequest.
func (w *selectWorld) request(idx int32) {
	e := &w.p.rob[idx]
	again := e.stage == stRequest
	e.stage = stRequest
	if w.ref == nil {
		w.p.intIQ.req.add(idx)
	} else if !again {
		w.ref.request(e.seq, idx)
	}
}

func (w *selectWorld) stopRequesting(idx int32) {
	w.p.rob[idx].stage = stWaiting
	if w.ref == nil {
		w.p.intIQ.req.remove(idx)
	}
}

// try applies the pass's verdict to the request in slot rob.
func (w *selectWorld) try(pass int, rob int32) verdict {
	p := w.p
	e := &p.rob[rob]
	if e.stage != stRequest {
		w.t.Fatalf("pass %d: select offered slot %d (seq %d), which is %s", pass, rob, e.seq, stageNames[e.stage])
	}
	v, reach := verdictOf(pass, e.seq)
	switch v {
	case vGrantWake:
		// The first waiting entry at least reach slots younger requests —
		// in this word of the bitmap, a later one, or past the wrap.
		size := int32(len(p.rob))
		for off := (rob-p.robHead+size)%size + reach; off < p.robCount; off++ {
			if y := (p.robHead + off) % size; p.rob[y].stage == stWaiting {
				w.request(y)
				w.woken[p.rob[y].seq] = pass
				break
			}
		}
		fallthrough
	case vGrant:
		e.stage, e.done = stDone, true
		w.granted = append(w.granted, e.seq)
		if w.woken[e.seq] == pass {
			w.sameOK++
		}
		if rob < p.robHead {
			w.wrapped++
		}
	case vStale:
		w.stopRequesting(rob)
	}
	return v
}

func (w *selectWorld) selectPass(pass, width int) {
	if w.ref != nil {
		w.ref.selectPass(w.p, width, func(rob int32) verdict { return w.try(pass, rob) })
		return
	}
	w.p.intIQ.selectOldest(w.p.robHead, width, func(rob int32) bool {
		v := w.try(pass, rob)
		return v == vGrant || v == vGrantWake
	})
}

// selectDriver applies the same seeded step to both worlds. Every choice
// is made from the production world's active list; the worlds are compared
// slot by slot after each step, so the choice is the oracle's too.
type selectDriver struct {
	t          *testing.T
	rng        *rand.Rand
	prod, ref  *selectWorld
	dispatched int
	dups       int
}

func (d *selectDriver) worlds() [2]*selectWorld { return [2]*selectWorld{d.prod, d.ref} }

func (d *selectDriver) slot(i int32) int32 {
	p := d.prod.p
	return (p.robHead + i) % int32(len(p.rob))
}

// pick finds an entry in the wanted stage near a random position; the
// minimum of two draws leans towards the head, so the ring keeps moving.
func (d *selectDriver) pick(want stage) (int32, bool) {
	p := d.prod.p
	if p.robCount == 0 {
		return 0, false
	}
	start := min(d.rng.Int31n(p.robCount), d.rng.Int31n(p.robCount))
	for i := start; i < p.robCount && i < start+64; i++ {
		if idx := d.slot(i); p.rob[idx].stage == want {
			return idx, true
		}
	}
	return 0, false
}

func (d *selectDriver) dispatch() {
	n := 1 + d.rng.Intn(8)
	for _, w := range d.worlds() {
		p := w.p
		for k := 0; k < n && p.robCount < int32(len(p.rob)); k++ {
			p.rob[p.robTail] = waitingEntry(p.nextSeq, true)
			p.intIQ.count++
			p.nextSeq++
			p.robTail = (p.robTail + 1) % int32(len(p.rob))
			p.robCount++
			if w == d.prod {
				d.dispatched++
			}
		}
	}
}

func (d *selectDriver) commit() {
	for _, w := range d.worlds() {
		p := w.p
		for n := 0; n < 8 && p.robCount > 0 && p.rob[p.robHead].stage == stDone; n++ {
			p.rob[p.robHead].stage = stFree
			p.robHead = (p.robHead + 1) % int32(len(p.rob))
			p.robCount--
		}
	}
}

func (d *selectDriver) step(pass *int) {
	p := d.prod.p
	switch r := d.rng.Intn(100); {
	case r < 22:
		d.dispatch()
	case r < 47: // wakeup: waiting entries request
		for n := 1 + d.rng.Intn(8); n > 0; n-- {
			if idx, ok := d.pick(stWaiting); ok {
				d.prod.request(idx)
				d.ref.request(idx)
			}
		}
	case r < 52: // a requester is asked to request again
		if idx, ok := d.pick(stRequest); ok {
			d.prod.request(idx)
			d.ref.request(idx)
			d.dups++
		}
	case r < 57: // a requester stops requesting outside select (head-evict)
		if idx, ok := d.pick(stRequest); ok {
			d.prod.stopRequesting(idx)
			d.ref.stopRequesting(idx)
		}
	case r < 62: // squash a suffix of the active list
		if p.robCount > 0 {
			depth := 1 + d.rng.Int31n(d.rng.Int31n(p.robCount)+1)
			seq := p.rob[d.slot(p.robCount-depth)].seq
			d.prod.p.squashFrom(seq, true)
			d.ref.p.squashFrom(seq, true)
		}
	case r < 80:
		d.commit()
	default:
		*pass++
		width := 1 + d.rng.Intn(6)
		if d.rng.Intn(8) == 0 {
			width = len(p.rob) // drain everything grantable
		}
		d.prod.selectPass(*pass, width)
		d.ref.selectPass(*pass, width)
	}
}

// compare requires identical active lists and grant orders.
func (d *selectDriver) compare(step int) {
	a, b := d.prod, d.ref
	if len(a.granted) != len(b.granted) {
		d.t.Fatalf("step %d: bitmap granted %d, heap oracle %d", step, len(a.granted), len(b.granted))
	}
	for i := range a.granted {
		if a.granted[i] != b.granted[i] {
			d.t.Fatalf("step %d: grant %d is seq %d, heap oracle granted seq %d", step, i, a.granted[i], b.granted[i])
		}
	}
	a.granted, b.granted = a.granted[:0], b.granted[:0]
	if a.p.robHead != b.p.robHead || a.p.robCount != b.p.robCount || a.p.intIQ.count != b.p.intIQ.count {
		d.t.Fatalf("step %d: active lists diverge: head %d/%d count %d/%d queued %d/%d", step,
			a.p.robHead, b.p.robHead, a.p.robCount, b.p.robCount, a.p.intIQ.count, b.p.intIQ.count)
	}
	for i := range a.p.rob {
		if x, y := &a.p.rob[i], &b.p.rob[i]; x.stage != y.stage || (x.stage != stFree && x.seq != y.seq) {
			d.t.Fatalf("step %d slot %d: seq %d %s, heap oracle has seq %d %s", step, i,
				x.seq, stageNames[x.stage], y.seq, stageNames[y.stage])
		}
	}
}

// TestIssueSelectDifferential drives the request bitmap and the heap it
// replaced through the same seeded request / duplicate request / clear /
// squash / commit / select steps, on rings of one partial word, two words
// and thirty-two, each wrapped several times. Select passes run under a
// width limit with set-aside, deferred and stale requests in play, and
// grants make younger entries request mid-pass. Both must grant the same
// instructions in the same order and leave the same active list, and the
// production world must hold its per-cycle invariants throughout.
func TestIssueSelectDifferential(t *testing.T) {
	for _, g := range []struct{ slots, steps int }{{16, 30_000}, {128, 30_000}, {2048, 60_000}} {
		world := func(ref *refIssueQueue) *selectWorld {
			b := isa.NewBuilder("idle")
			b.Halt()
			cfg := DefaultConfig()
			cfg.ActiveList, cfg.IntIQSize = g.slots, g.slots
			p, err := New(cfg, b.MustBuild())
			if err != nil {
				t.Fatal(err)
			}
			return &selectWorld{t: t, p: p, ref: ref, woken: map[uint64]int{}}
		}
		d := &selectDriver{t: t, rng: rand.New(rand.NewSource(int64(g.slots))),
			prod: world(nil), ref: world(newRefIssueQueue())}
		pass, kept := 0, 0
		for step := 0; step < g.steps; step++ {
			before := pass
			d.step(&pass)
			if pass != before {
				kept += d.prod.p.intIQ.req.n
				for i := 1; i < len(d.prod.granted); i++ {
					if d.prod.granted[i] <= d.prod.granted[i-1] {
						t.Fatalf("pass %d granted seq %d after seq %d", pass, d.prod.granted[i], d.prod.granted[i-1])
					}
				}
			}
			d.compare(step)
			d.prod.p.checkInvariants()
		}
		t.Logf("%d slots: %d passes, %d dispatched, %d requests kept across a pass, %d grants past the wrap, %d mid-pass requests granted in the same pass, %d duplicate requests",
			g.slots, pass, d.dispatched, kept, d.prod.wrapped, d.prod.sameOK, d.dups)
		if d.dispatched < 2*g.slots || kept == 0 || d.prod.wrapped == 0 || d.prod.sameOK == 0 || d.dups == 0 {
			t.Errorf("%d slots: the ring wrap, the kept-request, the mid-pass request or the duplicate case went unexercised", g.slots)
		}
		if d.prod.sameOK != d.ref.sameOK {
			t.Errorf("%d slots: %d mid-pass requests granted in the same pass, heap oracle %d", g.slots, d.prod.sameOK, d.ref.sameOK)
		}
	}
}

// TestSelectThrowsOnStrayRequestBit: the heap dropped an item whose slot
// no longer requested; a set bit on such a slot means the bitmap and the
// active list disagree, and the select says so.
func TestSelectThrowsOnStrayRequestBit(t *testing.T) {
	b := isa.NewBuilder("idle")
	b.Halt()
	p, err := New(DefaultConfig(), b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	p.intIQ.req.add(5) // slot 5 is free
	defer func() {
		if sp, ok := recover().(*SimPanic); !ok || sp.Kind != KindIQRequestMap {
			t.Errorf("select over a stray request bit: recovered %v, want a %s panic", sp, KindIQRequestMap)
		}
	}()
	p.issue()
}

package core

import (
	"math"
	"math/bits"
)

// eventKind discriminates scheduled completions.
type eventKind uint8

const (
	evExecDone eventKind = iota // functional unit finished (non-load)
	evLoadDone                  // load data returned
)

// event is one future completion. seq guards against the ROB slot being
// squashed and reused before the event fires.
type event struct {
	cycle int64
	seq   uint64
	rob   int32
	kind  eventKind
}

// before is the order completions fire in: by cycle, and within a cycle
// oldest instruction first. Events equal under it (only the dead events of
// a squashed instruction can be) fire in the order they were scheduled.
func (e *event) before(o *event) bool {
	return e.cycle < o.cycle || e.cycle == o.cycle && e.seq < o.seq
}

// The horizon of the calendar: an event less than calSlots cycles ahead of
// the queue's floor has a bucket of its own cycle; later ones wait on the
// overflow list. 1024 covers the default machine's longest completion
// (memory latency plus bus queueing); the 1000-cycle-memory sweeps overflow.
const (
	calSlots = 1 << 10
	calMask  = calSlots - 1
	calWords = calSlots / 64
)

// evNode is one scheduled event in the arena; next threads its list (a
// bucket, the overflow list or the free list). Index 0 is the nil link.
type evNode struct {
	ev   event
	next int32
}

// evList is an intrusive list of arena nodes, kept sorted by event.before.
// It is empty when head is nil; tail means something only when it is not.
type evList struct{ head, tail int32 }

// eventQueue is a calendar queue: a ring of per-cycle buckets over the
// window [floor, floor+calSlots), an occupancy bit per bucket so the next
// due cycle is a bits.TrailingZeros64 scan from min, and one sorted
// overflow list for events beyond the window, which move into the ring as
// the floor advances. Nodes come from one arena with a free list, so the
// steady state allocates nothing, and the zero value is an empty queue.
//
// Invariants: every ring event's cycle is in [floor, floor+calSlots) and
// every overflow event's cycle is at or beyond floor+calSlots, so a bucket
// holds one cycle only and the ring's earliest event is the queue's.
type eventQueue struct {
	floor int64 // no event is scheduled, or pending, before this cycle
	min   int64 // no event is pending before this cycle (popDue's fast path)
	n     int
	nodes []evNode
	free  int32
	over  evList
	occ   [calWords]uint64
	ring  [calSlots]evList
}

// schedule adds a completion. Its cycle must not precede the last cycle
// popDue was asked about: the pipeline only schedules forward.
func (q *eventQueue) schedule(e event) {
	if e.cycle < q.floor {
		panic("core: event scheduled in the past")
	}
	k := q.free
	if k != 0 {
		q.free = q.nodes[k].next
	} else {
		if len(q.nodes) == 0 {
			q.nodes = make([]evNode, 1, 64) // node 0 is the nil link
		}
		k = int32(len(q.nodes))
		q.nodes = append(q.nodes, evNode{})
	}
	q.nodes[k] = evNode{ev: e}
	q.n++
	if e.cycle < q.min {
		q.min = e.cycle
	}
	if e.cycle-q.floor >= calSlots {
		q.insert(&q.over, k)
		return
	}
	// insert's two common cases — an empty bucket, and a tail that is older
	// (the pipeline issues oldest first) — spelled out.
	i := uint(e.cycle) & calMask
	l := &q.ring[i]
	if l.head == 0 {
		l.head, l.tail = k, k
		q.occ[i>>6] |= 1 << (i & 63)
	} else if t := &q.nodes[l.tail]; t.ev.seq <= e.seq {
		t.next, l.tail = k, k
	} else {
		q.insert(l, k)
	}
}

// insert links node k (its next link nil) into l after every node that
// does not fire after it.
func (q *eventQueue) insert(l *evList, k int32) {
	ev := &q.nodes[k].ev
	if l.head != 0 && !ev.before(&q.nodes[l.tail].ev) {
		q.nodes[l.tail].next, l.tail = k, k
		return
	}
	link := &l.head
	for *link != 0 && !ev.before(&q.nodes[*link].ev) {
		link = &q.nodes[*link].next
	}
	if q.nodes[k].next = *link; *link == 0 {
		l.tail = k // l was empty: anywhere else the tail fires after k
	}
	*link = k
}

// setFloor advances the window and pulls in the overflow events it now
// covers, before anything can be scheduled into their buckets directly:
// insertion order among equals survives the detour.
func (q *eventQueue) setFloor(c int64) {
	q.floor = c
	if q.over.head != 0 {
		q.migrate()
	}
}

// migrate moves the overflow events inside the window — a prefix of the
// sorted list — into the ring.
func (q *eventQueue) migrate() {
	for k := q.over.head; k != 0 && q.nodes[k].ev.cycle-q.floor < calSlots; k = q.over.head {
		q.over.head, q.nodes[k].next = q.nodes[k].next, 0
		i := uint(q.nodes[k].ev.cycle) & calMask
		q.insert(&q.ring[i], k)
		q.occ[i>>6] |= 1 << (i & 63)
	}
}

// popDue removes and returns the next event with cycle <= now, if any.
func (q *eventQueue) popDue(now int64) (event, bool) {
	if now < q.min {
		return event{}, false
	}
	return q.pop(now)
}

// pop is popDue once the lower bound q.min no longer rules an event out.
func (q *eventQueue) pop(now int64) (event, bool) {
	i := uint(q.min) & calMask
	k := q.ring[i].head
	if k == 0 {
		// Nothing at q.min after all: find the earliest cycle, and take the
		// occasion to move the window up to it or to the caller's clock.
		c := q.nextCycle()
		if c < 0 || c > now {
			if q.min = c; c < 0 {
				q.min = math.MaxInt64
			}
			if now >= q.floor {
				q.setFloor(now + 1)
			}
			return event{}, false
		}
		q.min = c
		q.setFloor(c) // brings cycle c in from the overflow list if it was there
		i = uint(c) & calMask
		k = q.ring[i].head
	}
	n := &q.nodes[k]
	if q.ring[i].head = n.next; n.next == 0 {
		q.occ[i>>6] &^= 1 << (i & 63)
		// The cycle is spent: the next popDue(now) takes its fast path,
		// and the window follows the clock.
		q.min = n.ev.cycle + 1
		q.setFloor(n.ev.cycle)
	}
	n.next, q.free = q.free, k
	q.n--
	return n.ev, true
}

// nextCycle returns the cycle of the earliest pending event, or -1.
func (q *eventQueue) nextCycle() int64 {
	if q.n == 0 {
		return -1
	}
	// Ring order from q.min's bucket is cycle order. The first word is
	// scanned from that bit; if the scan comes back round to it only the
	// bits below are left to be set.
	i := uint(q.min) & calMask
	w, b := i>>6, i&63
	if m := q.occ[w] >> b; m != 0 {
		return q.min + int64(bits.TrailingZeros64(m))
	}
	for d := 64 - b; d < calSlots+64-b; d += 64 {
		w = (w + 1) % calWords
		if m := q.occ[w]; m != 0 {
			return q.min + int64(d) + int64(bits.TrailingZeros64(m))
		}
	}
	return q.nodes[q.over.head].ev.cycle
}

func (q *eventQueue) len() int { return q.n }

// pending returns the scheduled events in firing order for read-only
// diagnostic scans (watchdog reports, fault-injection victim selection).
// It allocates; diagnostics are off the hot path.
func (q *eventQueue) pending() []event {
	out := make([]event, 0, q.n)
	walk := func(l *evList) {
		for k := l.head; k != 0; k = q.nodes[k].next {
			out = append(out, q.nodes[k].ev)
		}
	}
	for d := uint(0); d < calSlots; d++ {
		walk(&q.ring[(uint(q.floor)+d)&calMask])
	}
	walk(&q.over)
	return out
}

// drop removes the i-th event of pending() (used by fault injection to
// model a lost completion wakeup). Events are values: where two are equal,
// removing the first is removing either.
func (q *eventQueue) drop(i int) {
	e := q.pending()[i]
	l, slot := &q.over, uint(e.cycle)&calMask
	inRing := e.cycle-q.floor < calSlots
	if inRing {
		l = &q.ring[slot]
	}
	link, prev := &l.head, int32(0)
	for q.nodes[*link].ev != e {
		prev, link = *link, &q.nodes[*link].next
	}
	k := *link
	if *link = q.nodes[k].next; l.tail == k {
		l.tail = prev
	}
	if inRing && l.head == 0 {
		q.occ[slot>>6] &^= 1 << (slot & 63)
	}
	q.nodes[k].next, q.free = q.free, k
	q.n--
}

package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"largewindow/internal/heap"
	"largewindow/internal/workload"
)

// heapQueue is the event queue the core ran on before the calendar queue:
// internal/heap's binary heap. It compared cycles only and popped equal
// cycles in whatever order its array layout gave; here it carries the
// specified order — (cycle, seq), then insertion — and is the oracle the
// calendar queue is held to.
type heapQueue struct {
	h   heap.Heap[heapEvent]
	ins uint64
}

type heapEvent struct {
	event
	ins uint64
}

func heapEventBefore(a, b heapEvent) bool {
	if a.cycle != b.cycle || a.seq != b.seq {
		return a.event.before(&b.event)
	}
	return a.ins < b.ins
}

func newHeapQueue() *heapQueue {
	return &heapQueue{h: heap.NewWithCapacity(heapEventBefore, 64)}
}

func (q *heapQueue) schedule(e event) {
	q.h.Push(heapEvent{e, q.ins})
	q.ins++
}

func (q *heapQueue) popDue(now int64) (event, bool) {
	if q.h.Len() == 0 || q.h.Peek().cycle > now {
		return event{}, false
	}
	return q.h.Pop().event, true
}

func (q *heapQueue) nextCycle() int64 {
	if q.h.Len() == 0 {
		return -1
	}
	return q.h.Peek().cycle
}

func (q *heapQueue) len() int { return q.h.Len() }

func (q *heapQueue) sorted() []heapEvent {
	out := slices.Clone(q.h.Slice())
	slices.SortFunc(out, func(a, b heapEvent) int {
		if heapEventBefore(a, b) {
			return -1
		}
		return 1
	})
	return out
}

func (q *heapQueue) pending() []event {
	var out []event
	for _, he := range q.sorted() {
		out = append(out, he.event)
	}
	return out
}

func (q *heapQueue) drop(i int) {
	ins := q.sorted()[i].ins
	q.h.Remove(slices.IndexFunc(q.h.Slice(), func(he heapEvent) bool { return he.ins == ins }))
}

// runQueueScript interprets script as schedule / pop / jump / drop
// operations on a calendar queue and the heap oracle side by side, and
// fails on the first answer that differs. The clock only moves forward and
// nothing is scheduled before it, as in the pipeline; within that, a
// script reaches same-cycle collisions with seqs out of order and repeated,
// the horizon's edges and beyond, jumps over several pending cycles and
// over whole turns of the ring, partial drains, and drops.
func runQueueScript(t testing.TB, script []byte) {
	var q eventQueue
	o := newHeapQueue()
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	var (
		now     int64
		seq     uint64 = 64
		last    int64  // cycle of the latest schedule
		drained bool   // popDue(now) has answered false
	)
	pop := func() bool {
		ge, gok := q.popDue(now)
		we, wok := o.popDue(now)
		if ge != we || gok != wok {
			t.Fatalf("popDue(%d) = %+v %v, oracle %+v %v", now, ge, gok, we, wok)
		}
		drained = !gok
		return gok
	}
	drain := func() {
		for pop() {
		}
	}
	for len(script) > 0 {
		switch op, arg := next(), next(); op % 8 {
		case 0, 1, 2:
			earliest := now
			if drained {
				earliest++
			}
			e := event{cycle: earliest, rob: int32(seq & 1023), kind: eventKind(op & 1)}
			far := [...]int64{0, 250, 600, calSlots - 1, calSlots, calSlots + 1, 3000}
			switch {
			case op%8 < 2:
				e.cycle += 1 + int64(arg%8)
			case arg%8 < len(far):
				e.cycle += far[arg%8]
			case last >= earliest:
				e.cycle = last
			}
			// One schedule in four reuses a recent seq: an older
			// instruction, or the very same (cycle, seq) twice.
			if e.seq = seq; arg>>3%4 == 0 {
				e.seq = seq - uint64(arg>>5) - 1
			}
			seq++
			last = e.cycle
			q.schedule(e)
			o.schedule(e)
		case 3:
			now++
			drain()
		case 4: // the idle fast-forward: straight to the next event
			if c := o.nextCycle(); c > now {
				now = c
			}
			drain()
		case 5: // past several pending cycles, up to four turns of the ring
			now += 1 + int64(arg)*16
			drain()
		case 6:
			pop()
		case 7:
			got, want := q.pending(), o.pending()
			if !slices.Equal(got, want) {
				t.Fatalf("pending at %d:\n got %+v\nwant %+v", now, got, want)
			}
			if arg%2 == 1 && len(want) > 0 {
				i := arg >> 1 % len(want)
				q.drop(i)
				o.drop(i)
			}
		}
		if q.len() != o.len() || q.nextCycle() != o.nextCycle() {
			t.Fatalf("at %d: len %d next %d, oracle len %d next %d", now, q.len(), q.nextCycle(), o.len(), o.nextCycle())
		}
	}
	now += 4 * calSlots
	drain()
	if q.len() != 0 || q.nextCycle() != -1 {
		t.Fatalf("drained queue has len %d, next %d", q.len(), q.nextCycle())
	}
}

// TestEventQueueMatchesHeap holds the calendar queue to the heap oracle
// over random scripts, and to the specified order outright: however the
// events of one cycle are inserted, they pop oldest first, equals in
// insertion order — whether they went straight into the ring or waited
// beyond the horizon first.
func TestEventQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		script := make([]byte, 600)
		rng.Read(script)
		runQueueScript(t, script)
	}

	seqs := []uint64{7, 3, 9, 3, 5}
	var permute func(k int, perm []int, visit func([]int))
	permute = func(k int, perm []int, visit func([]int)) {
		if k == len(perm) {
			visit(perm)
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			permute(k+1, perm, visit)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	for _, cycle := range []int64{10, 5 * calSlots} {
		permute(0, []int{0, 1, 2, 3, 4}, func(perm []int) {
			var q eventQueue
			var want []event
			for _, i := range perm {
				e := event{cycle: cycle, seq: seqs[i], rob: int32(i)}
				q.schedule(e)
				want = append(want, e)
			}
			slices.SortStableFunc(want, func(a, b event) int { return int(a.seq) - int(b.seq) })
			var got []event
			for e, ok := q.popDue(cycle); ok; e, ok = q.popDue(cycle) {
				got = append(got, e)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("cycle %d, insertion order %v:\n got %+v\nwant %+v", cycle, perm, got, want)
			}
		})
	}
}

// FuzzEventQueueMatchesHeap searches the script space of runQueueScript.
func FuzzEventQueueMatchesHeap(f *testing.F) {
	f.Add([]byte{0, 9, 0, 33, 0, 1, 3, 0, 3, 0})                    // same cycle: younger first, then older, then its twin
	f.Add([]byte{2, 4, 2, 6, 2, 5, 7, 0, 5, 70, 2, 3, 4, 0})        // beyond the horizon, then past it
	f.Add([]byte{2, 6, 2, 6, 7, 3, 4, 0, 0, 0, 5, 255, 1, 1, 6, 0}) // overflow, drop, drain, refill
	f.Fuzz(func(t *testing.T, script []byte) { runQueueScript(t, script) })
}

// shuffleEvents reschedules every pending event in a random order, equals
// under event.before excepted (their order is insertion order by
// specification): the same set of events, inserted differently.
func shuffleEvents(q *eventQueue, rng *rand.Rand) {
	evs := q.pending()
	if len(evs) < 2 {
		return
	}
	salt := rng.Uint64()
	key := func(e event) uint64 { return (uint64(e.cycle)*0x9E3779B97F4A7C15 ^ e.seq ^ salt) * 0xBF58476D1CE4E5B9 }
	slices.SortStableFunc(evs, func(a, b event) int {
		switch ka, kb := key(a), key(b); {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	})
	*q = eventQueue{floor: q.floor, min: q.min}
	for _, e := range evs {
		q.schedule(e)
	}
}

// TestSameCycleInsertionOrderIsUnobservable is the machine-level half of
// the order's specification: re-inserting the pending events in a random
// order before every cycle leaves Stats exactly as an undisturbed run's,
// on the conventional machine and on the WIB organizations whose
// reinsertion order made the old heap's arbitrary choice visible.
func TestSameCycleInsertionOrderIsUnobservable(t *testing.T) {
	cfgs := statsDigestConfigs()
	for _, name := range []string{"gzip", "mgrid", "art", "em3d", "perimeter"} {
		spec, ok := workload.Get(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		prog := spec.Build(workload.ScaleTest)
		for _, cfg := range []Config{cfgs[0], cfgs[1], cfgs[4], cfgs[5]} {
			t.Run(name+"/"+cfg.Name, func(t *testing.T) {
				t.Parallel()
				ref, err := New(cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Run(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				p, err := New(cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(len(name))))
				for !p.halted {
					shuffleEvents(&p.events, rng)
					p.cycle()
				}
				p.stats.finish(p.now, p.cfg)
				if !reflect.DeepEqual(*want, p.stats) {
					t.Errorf("Stats differ when same-cycle events are inserted in another order:\n got %+v\nwant %+v", p.stats, *want)
				}
			})
		}
	}
}

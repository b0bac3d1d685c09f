package bpred

import "testing"

func TestBTBInsertLookup(t *testing.T) {
	b := newBTB(8, 2)
	if _, hit := b.Lookup(100); hit {
		t.Error("cold lookup hit")
	}
	b.Insert(100, 200)
	if tgt, hit := b.Lookup(100); !hit || tgt != 200 {
		t.Errorf("lookup = (%d,%v)", tgt, hit)
	}
	b.Insert(100, 300) // retarget in place
	if tgt, _ := b.Lookup(100); tgt != 300 {
		t.Errorf("retarget failed: %d", tgt)
	}
}

func TestBTBLRUWithinSet(t *testing.T) {
	b := newBTB(8, 2) // 4 sets; pcs congruent mod 4 share a set
	b.Insert(0, 1)
	b.Insert(4, 2)
	b.Lookup(0)    // refresh 0
	b.Insert(8, 3) // evicts 4
	if _, hit := b.Lookup(0); !hit {
		t.Error("0 evicted")
	}
	if _, hit := b.Lookup(4); hit {
		t.Error("4 survived")
	}
	if _, hit := b.Lookup(8); !hit {
		t.Error("8 missing")
	}
}

func TestBTBStats(t *testing.T) {
	b := newBTB(8, 2)
	b.Insert(7, 70)
	b.Lookup(7)
	b.Lookup(9)
	if b.Lookups != 2 || b.Hits != 1 {
		t.Errorf("lookups=%d hits=%d", b.Lookups, b.Hits)
	}
}

func TestRASPushPop(t *testing.T) {
	r := newRAS(4)
	r.Push(10)
	r.Push(20)
	if v, _ := r.Pop(); v != 20 {
		t.Errorf("pop = %d, want 20", v)
	}
	if v, _ := r.Pop(); v != 10 {
		t.Errorf("pop = %d, want 10", v)
	}
}

func TestRASWrapAround(t *testing.T) {
	r := newRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if v, _ := r.Pop(); v != 3 {
		t.Errorf("pop = %d, want 3", v)
	}
	if v, _ := r.Pop(); v != 2 {
		t.Errorf("pop = %d, want 2", v)
	}
}

func TestRASRepairUndoesPush(t *testing.T) {
	r := newRAS(4)
	r.Push(10)
	rep := r.Push(99) // wrong-path push
	r.Repair(rep)
	if got := r.Top(); got != 10 {
		t.Errorf("after repair top = %d, want 10", got)
	}
}

func TestRASRepairUndoesPop(t *testing.T) {
	r := newRAS(4)
	r.Push(10)
	_, rep := r.Pop() // wrong-path pop
	r.Repair(rep)
	if got := r.Top(); got != 10 {
		t.Errorf("after repair top = %d, want 10", got)
	}
}

func TestRASNestedRepairYoungestFirst(t *testing.T) {
	r := newRAS(8)
	r.Push(1)
	rep1 := r.Push(2)
	_, rep2 := r.Pop()
	rep3 := r.Push(3)
	// Undo youngest first: push3, pop2, push2.
	r.Repair(rep3)
	r.Repair(rep2)
	r.Repair(rep1)
	if got := r.Top(); got != 1 {
		t.Errorf("after nested repair top = %d, want 1", got)
	}
	if v, _ := r.Pop(); v != 1 {
		t.Errorf("pop = %d", v)
	}
}

func TestRASOverwriteRepairRestoresData(t *testing.T) {
	// A wrap-around push clobbers the oldest entry; repair must restore
	// both the pointer and the data.
	r := newRAS(2)
	r.Push(1)
	r.Push(2)
	rep := r.Push(3) // clobbers slot holding 1
	r.Repair(rep)
	if v, _ := r.Pop(); v != 2 {
		t.Errorf("pop = %d, want 2", v)
	}
	if v, _ := r.Pop(); v != 1 {
		t.Errorf("pop = %d, want 1 (clobbered data restored)", v)
	}
}

package bpred

// BTB is a set-associative branch target buffer mapping branch PCs to
// their taken targets. PCs are instruction indices. Set s is ways
// [s·assoc, (s+1)·assoc).
type BTB struct {
	ways    []btbWay
	assoc   int
	setMask uint64
	tick    uint64

	Lookups uint64
	Hits    uint64
}

// btbWay is one way of the BTB: a lookup reads its tag, validity and LRU
// stamp together.
type btbWay struct {
	tag    uint64
	target uint64
	lru    uint64
	valid  bool
}

// newBTB builds a BTB with the given entry count and associativity.
func newBTB(entries, assoc int) BTB {
	nsets := entries / assoc
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("bpred: BTB set count must be a positive power of two")
	}
	return BTB{ways: make([]btbWay, entries), assoc: assoc, setMask: uint64(nsets - 1)}
}

// set returns the ways of pc's set.
func (b *BTB) set(pc uint64) []btbWay {
	base := int(pc&b.setMask) * b.assoc
	return b.ways[base : base+b.assoc]
}

// Lookup returns the predicted target for pc, if present.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	b.Lookups++
	b.tick++
	ways := b.set(pc)
	for i := range ways {
		if w := &ways[i]; w.valid && w.tag == pc {
			w.lru = b.tick
			b.Hits++
			return w.target, true
		}
	}
	return 0, false
}

// Insert records pc → target, replacing the LRU way of pc's set.
func (b *BTB) Insert(pc, target uint64) {
	b.tick++
	ways := b.set(pc)
	victim := 0
	for i := range ways {
		w := &ways[i]
		if w.valid && w.tag == pc {
			w.target = target
			w.lru = b.tick
			return
		}
		if !w.valid {
			victim = i
			break
		}
		if w.lru < ways[victim].lru {
			victim = i
		}
	}
	ways[victim] = btbWay{tag: pc, target: target, lru: b.tick, valid: true}
}

// RAS is a return-address stack with pointer-and-data repair: every
// speculative operation reports what it overwrote so a misprediction
// recovery can undo pushes and pops exactly (Skadron et al. [27]).
type RAS struct {
	stack []uint64
	top   int // index of the current top entry; -1 when empty wraps modulo
}

// newRAS builds a return-address stack with n entries (circular).
func newRAS(n int) RAS {
	if n <= 0 {
		panic("bpred: RAS size must be positive")
	}
	return RAS{stack: make([]uint64, n), top: 0}
}

// RASRepair is the pointer-and-data checkpoint of one speculative
// operation.
type RASRepair struct {
	Top     int16
	Slot    int16 // slot whose value was clobbered by a push; -1 otherwise
	SlotVal uint64
}

// Push speculatively pushes a return address and returns the repair record.
func (r *RAS) Push(addr uint64) RASRepair {
	rep := RASRepair{Top: int16(r.top), Slot: -1}
	if r.top++; r.top == len(r.stack) {
		r.top = 0
	}
	rep.Slot = int16(r.top)
	rep.SlotVal = r.stack[r.top]
	r.stack[r.top] = addr
	return rep
}

// Pop speculatively pops the predicted return address and the repair
// record.
func (r *RAS) Pop() (uint64, RASRepair) {
	rep := RASRepair{Top: int16(r.top), Slot: -1}
	v := r.stack[r.top]
	if r.top == 0 {
		r.top = len(r.stack)
	}
	r.top--
	return v, rep
}

// Repair undoes one speculative operation. Repairs must be applied
// youngest-first.
func (r *RAS) Repair(rep RASRepair) {
	if rep.Slot >= 0 {
		r.stack[rep.Slot] = rep.SlotVal
	}
	r.top = int(rep.Top)
}

// Top returns the current predicted return address without popping.
func (r *RAS) Top() uint64 { return r.stack[r.top] }

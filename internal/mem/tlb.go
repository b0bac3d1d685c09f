package mem

// TLB is a set-associative translation lookaside buffer over fixed-size
// pages. A miss costs a fixed penalty (hardware page walk) and installs
// the translation. Like the caches it tracks tags only — the simulator has
// a flat physical address space.
type TLB struct {
	tagArray
	penalty int64

	Accesses uint64
	Misses   uint64
}

// NewTLB builds a TLB with the given entry count, associativity, page size
// (power of two) and miss penalty in cycles.
func NewTLB(entries, assoc int, pageBytes uint64, penalty int64) *TLB {
	nsets := entries / assoc
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("mem: TLB set count must be a positive power of two")
	}
	return &TLB{tagArray: newTagArray(nsets, assoc, pageBytes), penalty: penalty}
}

// Translate looks up the page containing addr and returns the added delay
// in cycles (0 on hit, the miss penalty on a miss). The translation is
// installed on a miss.
func (t *TLB) Translate(addr uint64) int64 {
	t.Accesses++
	if hit, _ := t.touch(addr, false); hit {
		return 0
	}
	t.Misses++
	return t.penalty
}

// MissRatio returns Misses/Accesses, or 0 when idle.
func (t *TLB) MissRatio() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}

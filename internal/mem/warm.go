package mem

// Warm-touch API: functional cache/TLB warming driven by the emulator's
// access stream during checkpointed fast-forward. Warm operations install
// lines and update LRU exactly like demand accesses, but count nothing —
// the measured region's statistics must reflect only measured-region
// traffic — and carry no timing: there are no in-flight fills, so the
// first demand access to a warmed line is a plain hit.

// Warm touches addr without recording statistics: it updates LRU on a
// hit (marking the line dirty on stores) and allocates on a miss,
// reporting whether the touch hit. Warm-allocated lines from stores are
// installed dirty, so measured-region evictions of warm dirty lines still
// count as writebacks — matching a cache warmed by real execution.
func (c *Cache) Warm(addr uint64, store bool) (hit bool) {
	hit, _ = c.touch(addr, store)
	return hit
}

// Warm installs the translation for addr without counting an access or a
// miss, reporting whether the translation was already present.
func (t *TLB) Warm(addr uint64) (hit bool) {
	hit, _ = t.touch(addr, false)
	return hit
}

// warmData warms the data path for one access: the D-TLB and the L1D,
// touching the L2 only when the L1D warm-touch misses — the same
// filtering a demand miss path applies. (It is profileData without the
// classification; calling that and dropping the result measured ~2%
// slower per warm access, DESIGN.md §9.2, so the seven lines stay.)
func (h *Hierarchy) warmData(addr uint64, store bool) {
	if h.tlb != nil {
		h.tlb.Warm(addr)
	}
	if !h.l1d.Warm(addr, store) {
		h.l2.Warm(addr, false)
	}
}

// WarmLoad warms the hierarchy for a functional load.
func (h *Hierarchy) WarmLoad(addr uint64) { h.warmData(addr, false) }

// WarmStore warms the hierarchy for a functional store.
func (h *Hierarchy) WarmStore(addr uint64) { h.warmData(addr, true) }

// WarmFetch warms the instruction path for the line containing addr.
func (h *Hierarchy) WarmFetch(addr uint64) {
	if !h.l1i.Warm(addr, false) {
		h.l2.Warm(addr, false)
	}
}

// WarmLevel classifies where a profiled warm touch was satisfied. The
// interval-model profiler (internal/model) uses it to count per-level
// miss events in one functional pass without the timing machinery.
type WarmLevel uint8

// Warm-touch hit levels.
const (
	// WarmHitL1 hit in the first-level cache (L1D or L1I).
	WarmHitL1 WarmLevel = iota
	// WarmHitL2 missed the first level and hit the L2.
	WarmHitL2
	// WarmHitMem missed both levels: the fill comes from main memory.
	WarmHitMem
)

// profileData is warmData with hit classification: the same TLB/L1/L2
// filtering, but reporting where the access landed.
func (h *Hierarchy) profileData(addr uint64, store bool) (lvl WarmLevel, tlbMiss bool) {
	if h.tlb != nil {
		tlbMiss = !h.tlb.Warm(addr)
	}
	if h.l1d.Warm(addr, store) {
		return WarmHitL1, tlbMiss
	}
	if h.l2.Warm(addr, false) {
		return WarmHitL2, tlbMiss
	}
	return WarmHitMem, tlbMiss
}

// ProfileLoad warms the data path exactly like WarmLoad and reports the
// hit level and whether the D-TLB missed.
func (h *Hierarchy) ProfileLoad(addr uint64) (lvl WarmLevel, tlbMiss bool) {
	return h.profileData(addr, false)
}

// ProfileStore warms the data path exactly like WarmStore and reports
// the hit level and whether the D-TLB missed.
func (h *Hierarchy) ProfileStore(addr uint64) (lvl WarmLevel, tlbMiss bool) {
	return h.profileData(addr, true)
}

// ProfileFetch warms the instruction path exactly like WarmFetch and
// reports the hit level.
func (h *Hierarchy) ProfileFetch(addr uint64) WarmLevel {
	if h.l1i.Warm(addr, false) {
		return WarmHitL1
	}
	if h.l2.Warm(addr, false) {
		return WarmHitL2
	}
	return WarmHitMem
}

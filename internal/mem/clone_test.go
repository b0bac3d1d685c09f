package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

// traffic drives h with a seeded mix of timed loads, stores and fetches
// and warm touches over a footprint a few times the L1s, so lines are
// evicted (dirty ones among them) and the TLB churns. It returns the
// cycle after the last access.
func traffic(h *Hierarchy, seed int64, n int) int64 {
	r := rand.New(rand.NewSource(seed))
	now := int64(0)
	for i := 0; i < n; i++ {
		now += int64(r.Intn(3))
		addr := uint64(r.Intn(1<<18)) &^ 7
		switch r.Intn(5) {
		case 0:
			h.Load(addr, now)
		case 1:
			h.Store(addr, now)
		case 2:
			h.Fetch(addr, now)
		case 3:
			h.WarmLoad(addr)
		default:
			h.WarmStore(addr)
		}
	}
	return now
}

// TestHierarchyCloneIndependence is bpred's TestCloneIndependence for the
// memory system: a clone carries the tags, dirty bits, LRU stamps, TLB
// and counters but no in-flight fill, and afterwards a touch on either
// side leaves the other's probes, victims and stats unchanged.
func TestHierarchyCloneIndependence(t *testing.T) {
	for _, disableTLB := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.DisableTLB = disableTLB
		h, twin := NewHierarchy(cfg), NewHierarchy(cfg)
		now := traffic(h, 1, 20000)
		traffic(twin, 1, 20000)
		// One fill left in flight on the original.
		const pending = 0x7_0000_0000
		h.Load(pending, now)
		twin.Load(pending, now)

		c := h.CloneInto(nil)
		if hit, merged := h.ProbeLoad(pending, now+1); hit || !merged {
			t.Fatalf("TLB off=%v: original probe of the pending line = (%v,%v), want in flight", disableTLB, hit, merged)
		}
		if hit, merged := c.ProbeLoad(pending, now+1); !hit || merged {
			t.Errorf("TLB off=%v: clone probe of the pending line = (%v,%v), want a plain hit", disableTLB, hit, merged)
		}
		if c.L1DStats() != h.L1DStats() || c.L1IStats() != h.L1IStats() || c.L2Stats() != h.L2Stats() ||
			c.TLBMissRatio() != h.TLBMissRatio() || c.LoadCount != h.LoadCount || c.StoreCount != h.StoreCount ||
			c.MemFills != h.MemFills {
			t.Errorf("TLB off=%v: clone counters differ from the original's", disableTLB)
		}

		// Churn the clone: the original must stay exactly its twin.
		traffic(c, 2, 20000)
		if !reflect.DeepEqual(h, twin) {
			t.Errorf("TLB off=%v: touching the clone changed the original", disableTLB)
		}
		// And the other way: the original keeps evolving, the clone not.
		c.ResetTiming() // a clone has no fill in flight
		ref := c.CloneInto(nil)
		traffic(h, 3, 20000)
		if !reflect.DeepEqual(c, ref) {
			t.Errorf("TLB off=%v: touching the original changed the clone", disableTLB)
		}
		// Victims: the same eviction sequence on the untouched side and its
		// reference writes back the same lines.
		traffic(c, 4, 5000)
		traffic(ref, 4, 5000)
		if c.L1DStats() != ref.L1DStats() || c.L2Stats() != ref.L2Stats() {
			t.Errorf("TLB off=%v: clone evicts differently from its reference: %+v vs %+v",
				disableTLB, c.L1DStats(), ref.L1DStats())
		}
	}
}

// TestHierarchyCloneIntoReuses: a clone into a hierarchy built from the
// same Config reuses its buffers and is DeepEqual to a fresh clone; one
// built from another Config is replaced. ResetTiming and a reusing
// CloneInto allocate nothing.
func TestHierarchyCloneIntoReuses(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg)
	traffic(h, 5, 20000)
	dst := NewHierarchy(cfg)
	traffic(dst, 6, 20000)
	if got := h.CloneInto(dst); got != dst {
		t.Error("CloneInto replaced a destination of the same geometry")
	}
	if !reflect.DeepEqual(dst, h.CloneInto(nil)) {
		t.Error("a reused destination differs from a fresh clone")
	}
	other := cfg
	other.L2.SizeBytes *= 2
	if got := h.CloneInto(NewHierarchy(other)); !reflect.DeepEqual(got, h.CloneInto(nil)) {
		t.Error("a destination of another geometry did not become a clone")
	}
	if n := testing.AllocsPerRun(20, func() { h.CloneInto(dst) }); n != 0 {
		t.Errorf("CloneInto into a same-geometry destination allocated %.0f times", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		for a := uint64(0); a < 8; a++ {
			h.Load(0x9_0000_0000+a<<12, 0) // eight fills in flight
		}
		h.ResetTiming()
	}); n != 0 {
		t.Errorf("ResetTiming allocated: %.0f allocations per run", n)
	}
}

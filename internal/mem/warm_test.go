package mem

import "testing"

func TestWarmCountsNothing(t *testing.T) {
	c := smallCache()
	c.Warm(0x1000, false)
	c.Warm(0x2000, true)
	c.Warm(0x1000, false)
	s := c.Stats()
	if s.Accesses != 0 || s.Misses != 0 || s.Writebacks != 0 {
		t.Errorf("warm touches counted: %+v", s)
	}
}

func TestWarmInstallsLines(t *testing.T) {
	c := smallCache()
	if c.Warm(0x1000, false) {
		t.Error("cold warm touch reported a hit")
	}
	if !c.Warm(0x1000, false) {
		t.Error("second warm touch missed")
	}
	// The first demand access to a warmed line is a plain hit.
	if !c.Access(0x1000, false) {
		t.Error("demand access missed a warmed line")
	}
	s := c.Stats()
	if s.Accesses != 1 || s.Misses != 0 {
		t.Errorf("stats after warmed demand access: %+v", s)
	}
}

func TestWarmUpdatesLRU(t *testing.T) {
	c := smallCache() // 2-way; set-0 stride is 256
	c.Warm(0, false)
	c.Warm(256, false)
	c.Warm(0, false)   // 0 is now MRU
	c.Warm(512, false) // evicts 256
	if !c.Probe(0) || c.Probe(256) || !c.Probe(512) {
		t.Error("warm touches did not follow LRU replacement")
	}
}

func TestWarmStoreInstallsDirty(t *testing.T) {
	c := smallCache()
	c.Warm(0, true)      // warm store: dirty line
	c.Access(256, false) // fills the other way
	c.Access(512, false) // evicts the warm dirty line
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("writebacks = %d, want 1 (warm dirty line evicted)", got)
	}
}

func TestTLBWarmCountsNothing(t *testing.T) {
	tlb := newTLB(16, 4, 4096, 30)
	tlb.Warm(0x10000)
	if tlb.Accesses != 0 || tlb.Misses != 0 {
		t.Errorf("TLB warm counted: %d/%d", tlb.Accesses, tlb.Misses)
	}
	// The warmed translation hits on the first demand lookup.
	if pen := tlb.Translate(0x10000); pen != 0 {
		t.Errorf("warmed translation penalty = %d, want 0", pen)
	}
	if tlb.Accesses != 1 || tlb.Misses != 0 {
		t.Errorf("stats after warmed demand translate: %d/%d", tlb.Accesses, tlb.Misses)
	}
}

func TestHierarchyWarmLoadCountsNothing(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.WarmLoad(0x4000)
	h.WarmStore(0x8000)
	h.WarmFetch(0x1000)
	for _, s := range []CacheStats{h.L1DStats(), h.L1IStats(), h.L2Stats()} {
		if s.Accesses != 0 || s.Misses != 0 {
			t.Errorf("warm traffic counted: %+v", s)
		}
	}
	if h.tlb.Accesses != 0 || h.tlb.Misses != 0 {
		t.Errorf("warm traffic counted in TLB: %d/%d", h.tlb.Accesses, h.tlb.Misses)
	}
	if h.LoadCount != 0 || h.StoreCount != 0 || h.MemFills != 0 {
		t.Error("warm traffic counted in hierarchy traffic counters")
	}
}

func TestHierarchyWarmMissFiltersToL2(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.WarmLoad(0x4000)
	// The warm L1D miss touched the L2 — the line is now resident there.
	if !h.l2.Probe(0x4000) {
		t.Error("warm L1D miss did not warm the L2")
	}
	// A second warm load hits L1D and is filtered from the L2. Observe via
	// LRU: if it reached L2, it would refresh the line's recency.
	h.WarmLoad(0x4000)
	if !h.l1d.Probe(0x4000) {
		t.Error("warm load did not install into L1D")
	}
}

func TestHierarchyWarmFetchWarmsInstrPath(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.WarmFetch(0x1000)
	if !h.l1i.Probe(0x1000) {
		t.Error("warm fetch did not install into L1I")
	}
	if !h.l2.Probe(0x1000) {
		t.Error("warm fetch L1I miss did not warm the L2")
	}
	if h.l1d.Probe(0x1000) {
		t.Error("warm fetch leaked into the data path")
	}
}

func TestHierarchyWarmedDemandLoadIsFastHit(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.WarmLoad(0x8000)
	res := h.Load(0x8000, 100)
	if _, tlbMisses := h.TLBStats(); res.L1Miss || tlbMisses != 0 {
		t.Errorf("warmed demand load missed: %+v, %d TLB misses", res, tlbMisses)
	}
	if res.Ready != 100+h.cfg.L1Latency {
		t.Errorf("warmed demand load ready = %d, want %d", res.Ready, 100+h.cfg.L1Latency)
	}
}

func TestHierarchyWarmWithTLBDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableTLB = true
	h := NewHierarchy(cfg)
	h.WarmLoad(0x4000) // must not panic on nil TLB
	if !h.l1d.Probe(0x4000) {
		t.Error("warm load did not install with TLB disabled")
	}
}

package mem

import "testing"

func testConfig() Config {
	cfg := DefaultConfig()
	return cfg
}

func TestLoadHitTiming(t *testing.T) {
	h := NewHierarchy(testConfig())
	h.Load(0x1000, 0) // cold miss warms everything
	r := h.Load(0x1000, 1000)
	if _, tlbMisses := h.TLBStats(); r.L1Miss || tlbMisses != 1 {
		t.Errorf("warm load classified as miss: %+v, %d TLB misses", r, tlbMisses)
	}
	if r.Ready != 1000+2 {
		t.Errorf("L1 hit ready = %d, want 1002", r.Ready)
	}
}

func TestLoadMissTiming(t *testing.T) {
	h := NewHierarchy(testConfig())
	r := h.Load(0x100000, 0)
	if !r.L1Miss || !r.L2Miss {
		t.Errorf("cold load not classified L1+L2 miss: %+v", r)
	}
	// TLB miss (30) + L1 (2) + L2 (10) + memory (250).
	want := int64(30 + 2 + 10 + 250)
	if r.Ready != want {
		t.Errorf("cold load ready = %d, want %d", r.Ready, want)
	}
}

func TestLoadL2HitTiming(t *testing.T) {
	h := NewHierarchy(testConfig())
	h.Load(0x2000, 0)
	// Evict from L1 but not L2 by touching enough conflicting lines:
	// L1D has 128 sets, so stride 128*64 = 8192 bytes conflicts in L1.
	// L2 has 1024 sets (256KB/4/64), stride 65536 conflicts in L2.
	for i := uint64(1); i <= 4; i++ {
		h.Load(0x2000+i*8192, 0)
	}
	r := h.Load(0x2000, 5000)
	if !r.L1Miss || r.L2Miss {
		t.Errorf("expected L1 miss + L2 hit: %+v", r)
	}
	if r.Ready != 5000+2+10 {
		t.Errorf("L2 hit ready = %d, want %d", r.Ready, 5000+12)
	}
}

func TestSecondaryMissMerges(t *testing.T) {
	h := NewHierarchy(testConfig())
	r1 := h.Load(0x300000, 0)
	r2 := h.Load(0x300008, 5) // same line, while fill in flight
	if !r2.Merged {
		t.Errorf("secondary miss not merged: %+v", r2)
	}
	if r2.Ready != r1.Ready {
		t.Errorf("merged ready %d != primary ready %d", r2.Ready, r1.Ready)
	}
	// The merged access must not have gone to L2 again.
	if h.L2Stats().Accesses != 1 {
		t.Errorf("L2 accesses = %d, want 1", h.L2Stats().Accesses)
	}
	// After the fill completes, the line hits normally.
	r3 := h.Load(0x300000, r1.Ready+1)
	if r3.L1Miss {
		t.Errorf("post-fill access missed: %+v", r3)
	}
}

func TestProbeLoad(t *testing.T) {
	h := NewHierarchy(testConfig())
	if hit, _ := h.ProbeLoad(0x5000, 0); hit {
		t.Error("cold probe hit")
	}
	r := h.Load(0x5000, 0)
	hit, fill := h.ProbeLoad(0x5000, 1)
	if hit || fill != r.Ready {
		t.Errorf("in-flight probe = (%v,%d), want (false,%d)", hit, fill, r.Ready)
	}
	hit, fill = h.ProbeLoad(0x5000, r.Ready-1)
	if hit || fill != r.Ready {
		t.Errorf("probe the cycle before the fill = (%v,%d), want (false,%d)", hit, fill, r.Ready)
	}
	hit, fill = h.ProbeLoad(0x5000, r.Ready)
	if !hit || fill != 0 {
		t.Errorf("probe at the fill = (%v,%d), want (true,0)", hit, fill)
	}
	hit, fill = h.ProbeLoad(0x5000, r.Ready+1)
	if !hit || fill != 0 {
		t.Errorf("post-fill probe = (%v,%d), want (true,0)", hit, fill)
	}
	if h.L1DStats().Accesses != 1 {
		t.Error("probe perturbed stats")
	}
}

func TestStoreAllocatesAndDirties(t *testing.T) {
	h := NewHierarchy(testConfig())
	h.Store(0x6000, 0)
	if h.L1DStats().Misses != 1 {
		t.Errorf("store miss not counted")
	}
	// Evict the dirty line from the (4-way, 128-set) L1 by touching 4 more
	// conflicting lines; one writeback must happen.
	for i := uint64(1); i <= 4; i++ {
		h.Load(0x6000+i*8192, 1000*int64(i))
	}
	if wb := h.L1DStats().Writebacks; wb != 1 {
		t.Errorf("writebacks = %d, want 1", wb)
	}
}

func TestFetchUsesICache(t *testing.T) {
	h := NewHierarchy(testConfig())
	r1 := h.Fetch(0, 0)
	if !r1.L1Miss {
		t.Error("cold fetch hit")
	}
	r2 := h.Fetch(8, r1.Ready)
	if r2.L1Miss {
		t.Error("same-line fetch missed")
	}
	if h.L1DStats().Accesses != 0 {
		t.Error("fetch touched the D-cache")
	}
	if h.L1IStats().Accesses != 2 {
		t.Errorf("I-cache accesses = %d", h.L1IStats().Accesses)
	}
}

func TestTLBMissAddsPenalty(t *testing.T) {
	h := NewHierarchy(testConfig())
	cfg := testConfig()
	r := h.Load(0x7000, 0)
	if _, misses := h.TLBStats(); misses != 1 {
		t.Error("first touch of page did not miss TLB")
	}
	if want := cfg.TLBPenalty + cfg.L1Latency + cfg.L2Latency + cfg.MemLatency; r.Ready != want {
		t.Errorf("cold load behind a TLB miss ready = %d, want %d", r.Ready, want)
	}
	r2 := h.Load(0x7000+64, 1000) // same page, different line
	if _, misses := h.TLBStats(); misses != 1 {
		t.Error("second touch of page missed TLB")
	}
	if want := 1000 + cfg.L1Latency + cfg.L2Latency + cfg.MemLatency; r2.Ready != want {
		t.Errorf("cold load behind a TLB hit ready = %d, want %d", r2.Ready, want)
	}
}

func TestDisableTLB(t *testing.T) {
	cfg := testConfig()
	cfg.DisableTLB = true
	h := NewHierarchy(cfg)
	r := h.Load(0x9000, 0)
	if want := int64(2 + 10 + 250); r.Ready != want {
		t.Errorf("ready = %d, want %d", r.Ready, want)
	}
	if h.TLBMissRatio() != 0 {
		t.Error("disabled TLB has nonzero miss ratio")
	}
}

func TestUnifiedL2SharedByIAndD(t *testing.T) {
	h := NewHierarchy(testConfig())
	h.Fetch(0xA000, 0)
	r := h.Load(0xA000, 500)
	// The fetch warmed the unified L2, so the load is an L1D miss but an
	// L2 hit.
	if !r.L1Miss || r.L2Miss {
		t.Errorf("load after fetch of same line: %+v", r)
	}
}

func TestLoadCounters(t *testing.T) {
	h := NewHierarchy(testConfig())
	r := h.Load(0, 0)
	merged := h.Load(0, 10) // merged secondary miss: still a miss (data not present)
	h.Store(8, 20)
	hit := h.Load(0, r.Ready+1) // post-fill hit
	if h.LoadCount != 3 || h.StoreCount != 1 {
		t.Errorf("counts = %d loads, %d stores", h.LoadCount, h.StoreCount)
	}
	if !r.L1Miss || !merged.L1Miss || hit.L1Miss {
		t.Errorf("L1 misses = %v, %v, %v, want a primary miss, a merged miss, a hit", r.L1Miss, merged.L1Miss, hit.L1Miss)
	}
}

func TestMemLatencyConfigurable(t *testing.T) {
	cfg := testConfig()
	cfg.MemLatency = 100
	cfg.DisableTLB = true
	h := NewHierarchy(cfg)
	r := h.Load(0xB000, 0)
	if want := int64(2 + 10 + 100); r.Ready != want {
		t.Errorf("ready = %d, want %d", r.Ready, want)
	}
}

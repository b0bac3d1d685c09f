package mem

import "testing"

func TestTLBHitMiss(t *testing.T) {
	tlb := newTLB(8, 2, 4096, 30)
	if d := tlb.Translate(0x1234); d != 30 {
		t.Errorf("cold translate delay = %d, want 30", d)
	}
	if d := tlb.Translate(0x1FF8); d != 0 { // same page
		t.Errorf("warm translate delay = %d, want 0", d)
	}
	if d := tlb.Translate(0x2000); d != 30 { // next page
		t.Errorf("new page delay = %d, want 30", d)
	}
	if tlb.Accesses != 3 || tlb.Misses != 2 {
		t.Errorf("accesses=%d misses=%d", tlb.Accesses, tlb.Misses)
	}
	if got := tlb.MissRatio(); got < 0.66 || got > 0.67 {
		t.Errorf("miss ratio = %v", got)
	}
}

func TestTLBLRU(t *testing.T) {
	tlb := newTLB(4, 2, 4096, 30)                      // 2 sets x 2 ways
	p := func(i uint64) uint64 { return i * 4096 * 2 } // all map to set 0
	tlb.Translate(p(0))
	tlb.Translate(p(1))
	tlb.Translate(p(0)) // refresh
	tlb.Translate(p(2)) // evicts p(1)
	if d := tlb.Translate(p(0)); d != 0 {
		t.Error("p0 evicted, expected p1")
	}
	if d := tlb.Translate(p(1)); d != 30 {
		t.Error("p1 still resident")
	}
}

func TestTLBZeroRatioWhenIdle(t *testing.T) {
	tlb := newTLB(8, 2, 4096, 30)
	if tlb.MissRatio() != 0 {
		t.Error("idle TLB miss ratio nonzero")
	}
}

func TestTLBBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for bad geometry")
		}
	}()
	newTLB(6, 2, 4096, 30) // 3 sets
}

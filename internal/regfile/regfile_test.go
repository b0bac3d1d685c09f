package regfile

import "testing"

func TestSingleLevelIsFree(t *testing.T) {
	var m SingleLevel
	m.Wrote(5, 0)
	if d := m.ReadDelay(5, 10); d != 0 {
		t.Errorf("delay = %d", d)
	}
	if d := m.ReadDelay(4095, 10); d != 0 {
		t.Errorf("delay = %d", d)
	}
}

func TestTwoLevelHitAfterWrite(t *testing.T) {
	m := NewTwoLevel(256, 4, 2, 4)
	m.Wrote(7, 0)
	if d := m.ReadDelay(7, 1); d != 0 {
		t.Errorf("L1 read delay = %d, want 0", d)
	}
	if m.Hits != 1 || m.Misses != 0 {
		t.Errorf("hits=%d misses=%d", m.Hits, m.Misses)
	}
}

func TestTwoLevelMissPaysLatency(t *testing.T) {
	m := NewTwoLevel(256, 4, 2, 4)
	if d := m.ReadDelay(9, 100); d != 4 {
		t.Errorf("L2 read delay = %d, want 4", d)
	}
	// The miss installed it.
	if d := m.ReadDelay(9, 101); d != 0 {
		t.Errorf("second read delay = %d, want 0", d)
	}
}

func TestTwoLevelLRUEviction(t *testing.T) {
	m := NewTwoLevel(256, 2, 4, 4)
	m.Wrote(1, 0)
	m.Wrote(2, 0)
	m.ReadDelay(1, 1) // promote 1
	m.Wrote(3, 2)     // evicts 2
	if d := m.ReadDelay(1, 3); d != 0 {
		t.Error("reg 1 evicted, expected reg 2")
	}
	if d := m.ReadDelay(2, 4); d == 0 {
		t.Error("reg 2 still resident")
	}
	if m.L1Count() != 2 {
		t.Errorf("L1 count = %d, want 2", m.L1Count())
	}
}

func TestTwoLevelPortContention(t *testing.T) {
	m := NewTwoLevel(256, 1, 2, 4) // 2 ports
	// Three L2 reads at the same cycle: the third must wait one cycle.
	d1 := m.ReadDelay(10, 50)
	m.Wrote(0, 0) // keep reg 10,11,12 out of L1 by filling capacity-1 L1
	d2 := m.ReadDelay(11, 50)
	m.Wrote(0, 0)
	d3 := m.ReadDelay(12, 50)
	if d1 != 4 || d2 != 4 {
		t.Errorf("first two delays = %d,%d, want 4,4", d1, d2)
	}
	if d3 != 5 {
		t.Errorf("third delay = %d, want 5 (port conflict)", d3)
	}
}

func TestTwoLevelManyRegsChurn(t *testing.T) {
	// Churn far more registers than capacity; structure must stay
	// consistent and capacity bounded.
	m := NewTwoLevel(1024, 16, 4, 4)
	for i := 0; i < 10000; i++ {
		m.Wrote(i%1024, int64(i))
		m.ReadDelay((i*7)%1024, int64(i))
	}
	if m.L1Count() > 16 {
		t.Errorf("L1 overflow: %d", m.L1Count())
	}
	if m.Hits == 0 || m.Misses == 0 {
		t.Errorf("expected both hits and misses, got %d/%d", m.Hits, m.Misses)
	}
}

func TestMultiBankedNoConflict(t *testing.T) {
	m := NewMultiBanked(4, 1)
	// Four reads in one cycle, one per bank: no delay.
	for r := 0; r < 4; r++ {
		if d := m.ReadDelay(r, 10); d != 0 {
			t.Errorf("reg %d delay = %d", r, d)
		}
	}
	if m.ConflictRate() != 0 {
		t.Errorf("conflict rate = %v", m.ConflictRate())
	}
}

func TestMultiBankedConflictSerializes(t *testing.T) {
	m := NewMultiBanked(4, 1)
	// Registers 0 and 4 share bank 0.
	if d := m.ReadDelay(0, 10); d != 0 {
		t.Errorf("first read delay = %d", d)
	}
	if d := m.ReadDelay(4, 10); d != 1 {
		t.Errorf("conflicting read delay = %d, want 1", d)
	}
	if d := m.ReadDelay(8, 10); d != 2 {
		t.Errorf("third conflicting read delay = %d, want 2", d)
	}
	if m.ConflictRate() < 0.6 {
		t.Errorf("conflict rate = %v", m.ConflictRate())
	}
}

func TestMultiBankedMorePorts(t *testing.T) {
	m := NewMultiBanked(2, 2)
	m.ReadDelay(0, 5)
	if d := m.ReadDelay(2, 5); d != 0 {
		t.Errorf("second port should be free, delay = %d", d)
	}
	if d := m.ReadDelay(4, 5); d != 1 {
		t.Errorf("third read should wait, delay = %d", d)
	}
}

func TestMultiBankedBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewMultiBanked(0, 1)
}

func TestTwoLevelPrefetch(t *testing.T) {
	m := NewTwoLevel(64, 4, 2, 4)
	m.Prefetch(9)
	if d := m.ReadDelay(9, 0); d != 0 {
		t.Errorf("prefetched register read delay = %d", d)
	}
	if m.Hits != 1 {
		t.Errorf("hits = %d", m.Hits)
	}
}

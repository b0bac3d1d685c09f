package core

import "testing"

func poolWIB(blocks, slots int) *wib {
	return newWIB(WIBConfig{
		Entries: 128, Org: OrgPoolOfBlocks, Blocks: blocks, BlockSlots: slots,
	}, 128, 64)
}

func TestPoolBlockAccounting(t *testing.T) {
	w := poolWIB(2, 2)
	c, ok := w.allocColumn(1)
	if !ok {
		t.Fatal("column alloc failed")
	}
	// First two deposits claim one block, the third claims the second.
	for i := 0; i < 4; i++ {
		if !w.blockAvailable(c) {
			t.Fatalf("deposit %d rejected with blocks remaining", i)
		}
		w.depositRow(c, wibRow{rob: int32(i), seq: uint64(i)})
	}
	if w.poolFree != 0 {
		t.Errorf("poolFree = %d, want 0", w.poolFree)
	}
	if w.blockAvailable(c) {
		t.Error("fifth deposit accepted with an exhausted pool")
	}
	w.releaseBlocks(c)
	if w.poolFree != 2 {
		t.Errorf("poolFree after release = %d, want 2", w.poolFree)
	}
}

func TestPoolDefaultsApplied(t *testing.T) {
	w := newWIB(WIBConfig{Entries: 128, Org: OrgPoolOfBlocks, Banked: true}, 128, 64)
	if w.cfg.BlockSlots != 32 || w.cfg.Blocks != 4 {
		t.Errorf("defaults = %d blocks x %d slots", w.cfg.Blocks, w.cfg.BlockSlots)
	}
	if w.cfg.Banked {
		t.Error("pool organization kept banking")
	}
}

func TestPoolBitVectorOrgUnlimitedBlocks(t *testing.T) {
	w := newWIB(WIBConfig{Entries: 128, Banked: true, Banks: 16}, 128, 64)
	c, _ := w.allocColumn(1)
	for i := 0; i < 1000; i++ {
		if !w.blockAvailable(c) {
			t.Fatal("bit-vector organization rejected a deposit")
		}
	}
}

func TestPoolChainFIFOOrder(t *testing.T) {
	// Rows become eligible in deposit order, not program (seq) order.
	w := poolWIB(4, 4)
	w.addEligible(0, []wibRow{{rob: 5, seq: 50}, {rob: 3, seq: 30}, {rob: 9, seq: 90}})
	if len(w.chainFIFO) != 3 {
		t.Fatalf("fifo len = %d", len(w.chainFIFO))
	}
	if w.chainFIFO[0].seq != 50 || w.chainFIFO[1].seq != 30 {
		t.Errorf("fifo order = %v (deposit order not preserved)", w.chainFIFO)
	}
}

func TestPoolGoldenAndSpills(t *testing.T) {
	// A tiny pool must still execute correctly and record spills on a
	// miss-heavy workload.
	prog := progArraySweep(4096)
	cfg := WIBPoolOfBlocks(512, 2, 8)
	st, _ := runBoth(t, cfg, prog)
	if st.WIBInsertions == 0 {
		t.Error("pool organization never parked anything")
	}
	if st.PoolSpills == 0 {
		t.Error("2x8 pool produced no spills on an MLP sweep")
	}
}

func TestPoolVsBitVectorPerformance(t *testing.T) {
	// With ample blocks the two organizations should be in the same
	// performance ballpark; with a starved pool the bit-vector design
	// must win.
	prog := progArraySweep(4096)
	bv := runToHalt(t, WIBConfigSized(512, 0), prog)
	ample := runToHalt(t, WIBPoolOfBlocks(512, 16, 32), prog)
	starved := runToHalt(t, WIBPoolOfBlocks(512, 1, 8), prog)
	if ample.IPC < bv.IPC*0.5 {
		t.Errorf("ample pool IPC %.3f far below bit-vector %.3f", ample.IPC, bv.IPC)
	}
	if starved.IPC > bv.IPC {
		t.Errorf("starved pool (%.3f) beat bit-vectors (%.3f)", starved.IPC, bv.IPC)
	}
}

func TestOrgString(t *testing.T) {
	if OrgBitVector.String() != "bit-vector" || OrgPoolOfBlocks.String() != "pool-of-blocks" {
		t.Error("org names wrong")
	}
}

package core

import (
	"math/bits"
	"testing"

	"largewindow/internal/isa"
)

// runCycles builds a processor and runs the program to completion,
// returning final stats.
func runToHalt(t *testing.T, cfg Config, prog *isa.Program) *Stats {
	t.Helper()
	p, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(0, 10_000_000)
	if err != nil {
		t.Fatalf("%v\n%s", err, p.DebugDump(16))
	}
	return st
}

// TestSerialALUChainThroughput: a chain of N dependent 1-cycle adds must
// execute at ~1 IPC (back-to-back bypass), not slower.
func TestSerialALUChainThroughput(t *testing.T) {
	b := isa.NewBuilder("serial")
	// A loop keeps the I-cache warm; 16 dependent adds per iteration.
	const rounds, chain = 500, 16
	b.Li(isa.T0, 1)
	b.Loop(isa.S5, rounds, func() {
		for i := 0; i < chain; i++ {
			b.Addi(isa.T0, isa.T0, 1)
		}
	})
	b.Halt()
	st := runToHalt(t, DefaultConfig(), b.MustBuild())
	const n = rounds * chain
	// n dependent adds need at least n cycles; allow startup + loop costs.
	if st.Cycles < n {
		t.Errorf("cycles %d < chain length %d (impossible bypass)", st.Cycles, n)
	}
	if st.Cycles > n+n/2 {
		t.Errorf("cycles %d for %d-add chain: dependent adds not back-to-back", st.Cycles, n)
	}
}

// TestIndependentALUWidth: independent adds must sustain close to the
// 8-wide fetch/commit limit.
func TestIndependentALUWidth(t *testing.T) {
	b := isa.NewBuilder("wide")
	regs := []isa.Reg{isa.T0, isa.T1, isa.T2, isa.T3, isa.T4, isa.T5, isa.T6, isa.T7}
	for _, r := range regs {
		b.Li(r, 1)
	}
	// Enough iterations to amortize the cold I-cache fill of the loop
	// body (~6 lines x 262 cycles).
	b.Loop(isa.S5, 3000, func() {
		for i := 0; i < 4; i++ {
			for _, r := range regs {
				b.Addi(r, r, 1)
			}
		}
	})
	b.Halt()
	st := runToHalt(t, DefaultConfig(), b.MustBuild())
	if st.IPC < 4.5 {
		t.Errorf("independent-op IPC = %.2f, want near 8", st.IPC)
	}
}

// TestIntMultLatency: a chain of dependent multiplies runs at the 7-cycle
// multiplier latency.
func TestIntMultLatency(t *testing.T) {
	b := isa.NewBuilder("mulchain")
	const rounds, chain = 100, 8
	b.Li(isa.T0, 1)
	b.Loop(isa.S5, rounds, func() {
		for i := 0; i < chain; i++ {
			b.Mul(isa.T0, isa.T0, isa.T0)
		}
	})
	b.Halt()
	st := runToHalt(t, DefaultConfig(), b.MustBuild())
	const n = rounds * chain
	if st.Cycles < 7*n {
		t.Errorf("cycles %d < %d: multiplies faster than 7-cycle latency", st.Cycles, 7*n)
	}
	if st.Cycles > 7*n+7*n/4 {
		t.Errorf("cycles %d for %d muls: dependent multiplies not latency-limited", st.Cycles, n)
	}
}

// TestNonPipelinedDividers: with 2 dividers (12-cycle, non-pipelined),
// independent divides are limited to 2 per 12 cycles.
func TestNonPipelinedDividers(t *testing.T) {
	b := isa.NewBuilder("div")
	b.Li(isa.T0, 3)
	b.Fcvt(isa.F0, isa.T0)
	b.Fmov(isa.F1, isa.F0)
	const n = 100
	for i := 0; i < n; i++ {
		// Alternate destinations; all independent of each other.
		b.Fdiv(isa.F2, isa.F0, isa.F1)
		b.Fdiv(isa.F3, isa.F0, isa.F1)
	}
	b.Halt()
	st := runToHalt(t, DefaultConfig(), b.MustBuild())
	// 2n divides / 2 units * 12 cycles each (non-pipelined).
	want := int64(n * 12)
	if st.Cycles < want {
		t.Errorf("cycles %d < %d: dividers behaved as pipelined", st.Cycles, want)
	}
}

// TestLoadHitLatency: dependent L1-hit loads (pointer chase in cache)
// should cost a few cycles each, far below the L2 latency.
func TestLoadHitLatency(t *testing.T) {
	b := isa.NewBuilder("hitchain")
	// Tiny 8-node cycle, all in one cache line region.
	nodes := b.AllocWords(8)
	for i := uint64(0); i < 8; i++ {
		b.SetWord(nodes+i*8, nodes+((i+1)%8)*8)
	}
	b.LiAddr(isa.T0, nodes)
	const rounds, chain = 200, 8
	b.Loop(isa.S5, rounds, func() {
		for i := 0; i < chain; i++ {
			b.Ld(isa.T0, isa.T0, 0)
		}
	})
	b.Halt()
	st := runToHalt(t, DefaultConfig(), b.MustBuild())
	perLoad := float64(st.Cycles) / (rounds * chain)
	if perLoad < 2 || perLoad > 6 {
		t.Errorf("L1-hit load-to-load = %.2f cycles, want ~3-4", perLoad)
	}
}

// TestMispredictPenalty: a completely unpredictable branch stream pays
// roughly the 9-cycle penalty per mispredict.
func TestMispredictPenalty(t *testing.T) {
	b := isa.NewBuilder("mispred")
	// LCG-driven branch: ~50% taken, history-resistant.
	b.Li64(isa.S1, 6364136223846793005)
	b.Li(isa.S0, 42)
	b.Loop(isa.S5, 2000, func() {
		b.Mul(isa.S0, isa.S0, isa.S1)
		b.Addi(isa.S0, isa.S0, 1442695)
		b.Srli(isa.T1, isa.S0, 62)
		skip := b.NewLabel()
		b.Andi(isa.T1, isa.T1, 1)
		b.Beq(isa.T1, isa.Zero, skip)
		b.Addi(isa.T2, isa.T2, 1)
		b.Bind(skip)
	})
	b.Halt()
	st := runToHalt(t, DefaultConfig(), b.MustBuild())
	acc := st.CondAccuracy()
	if acc > 0.85 {
		t.Skipf("branch unexpectedly predictable (%.2f)", acc)
	}
	if st.Mispredicts < 400 {
		t.Errorf("mispredicts = %d, expected ~1000", st.Mispredicts)
	}
	// Each mispredict costs >= the 9-cycle redirect.
	minCycles := int64(st.Mispredicts) * 9
	if st.Cycles < minCycles {
		t.Errorf("cycles %d < mispredict floor %d", st.Cycles, minCycles)
	}
}

// TestMemoryLatencySensitivity: a serial pointer chase's runtime must
// scale with the configured memory latency.
func TestMemoryLatencySensitivity(t *testing.T) {
	prog := progPointerChase(256, 65536) // every hop misses L1+L2
	slow := DefaultConfig()
	fast := DefaultConfig()
	fast.Mem.MemLatency = 50
	fast.Name = "fast-mem"
	sSlow := runToHalt(t, slow, prog)
	sFast := runToHalt(t, fast, prog)
	ratio := float64(sSlow.Cycles) / float64(sFast.Cycles)
	if ratio < 2 {
		t.Errorf("250 vs 50-cycle memory ratio = %.2f, want > 2", ratio)
	}
}

// TestIQSizeMatters: with long-latency misses and a serial consumer, a
// larger issue queue (same active list) must not hurt, and a larger
// window must help on MLP-rich code.
func TestWindowSizeHelpsMLP(t *testing.T) {
	prog := progArraySweep(4096)
	small := runToHalt(t, DefaultConfig(), prog)
	big := runToHalt(t, ScaledConfig(2048, 2048), prog)
	if big.IPC <= small.IPC*1.5 {
		t.Errorf("2K window %.3f vs base %.3f: expected > 1.5x on MLP sweep", big.IPC, small.IPC)
	}
}

// TestIFQStallsOnICacheMiss: a program bigger than the L1 I-cache suffers
// fetch stalls; the same program must still commit correctly (covered by
// golden tests) and show I-cache misses.
func TestICacheMisses(t *testing.T) {
	b := isa.NewBuilder("bigcode")
	// 8K instructions = 64KB of code, 2x the 32KB L1I.
	for i := 0; i < 8192; i++ {
		b.Addi(isa.T0, isa.T0, 1)
	}
	b.Halt()
	p, err := New(DefaultConfig(), b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(0, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if p.Hierarchy().L1IStats().Misses == 0 {
		t.Error("64KB of straight-line code produced no I-cache misses")
	}
}

// TestStoreLoadForwarding: a store followed immediately by a load of the
// same address must forward (no L1 access for the load) and commit the
// right value.
func TestStoreLoadForwardingFast(t *testing.T) {
	b := isa.NewBuilder("fwd")
	slot := b.AllocWords(1)
	b.LiAddr(isa.S0, slot)
	const n = 500
	// A loop gives the store-wait table a single load PC to train on.
	b.Loop(isa.S5, n, func() {
		b.Addi(isa.T0, isa.T0, 3)
		b.St(isa.T0, isa.S0, 0)
		b.Ld(isa.T1, isa.S0, 0)
		b.Add(isa.T2, isa.T2, isa.T1)
	})
	b.Halt()
	p, err := New(DefaultConfig(), b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(0, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.ForwardedLoads < n/2 {
		t.Errorf("forwarded %d of %d same-address loads", st.ForwardedLoads, n)
	}
	if st.Replays > n/10 {
		t.Errorf("replays = %d: same-cycle forwarding misbehaving", st.Replays)
	}
}

// TestDeferredLoadBehindPendingStoreData pins the split STA/STD stall: a
// store whose address is known but whose data operand hangs off a cache
// miss holds the aliasing load behind it in the issue queue — deferred and
// retried every cycle, the path that made the store-queue search hot. The
// load issues in the very cycle the data arrives; when the store is still
// in the store queue at that point the load forwards, completing one
// address-generation latency plus the one-cycle store-queue bypass later.
// (A store at the active-list head commits in that same cycle, before
// issue, and the load reads the cache instead.)
func TestDeferredLoadBehindPendingStoreData(t *testing.T) {
	const iters = 8
	b := isa.NewBuilder("sta-std")
	slot := b.AllocWords(8)
	far := b.AllocWords(1024 * 64)
	b.LiAddr(isa.S0, slot)
	b.LiAddr(isa.S1, far)
	var missPC uint64
	b.Loop(isa.S5, iters, func() {
		missPC = uint64(b.PC())
		b.Ld(isa.T0, isa.S1, 0) // misses to memory
		b.St(isa.T0, isa.S0, 0) // address ready at once, data after the miss
		b.Ld(isa.T1, isa.S0, 0) // aliases the store
		b.Add(isa.T2, isa.T2, isa.T1)
		b.Addi(isa.S1, isa.S1, 4096)
	})
	b.Halt()
	prog := b.MustBuild()

	for _, cfg := range []Config{DefaultConfig(), WIBDefault()} {
		cfg.TraceCapacity = 4096
		p, err := New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.Run(0, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		// Committed instances of the three memory instructions, in order.
		var miss, store *InstrTrace
		pairs, forwarded := 0, uint64(0)
		traces := p.Traces()
		for i := range traces {
			tr := &traces[i]
			if tr.Squashed || tr.Committed == 0 {
				continue
			}
			switch tr.PC {
			case missPC:
				miss = tr
			case missPC + 1:
				store = tr
			case missPC + 2:
				if pairs++; pairs == 1 {
					continue // cold I-cache, untrained store-wait table
				}
				if wait := tr.Issued - tr.Dispatch; wait < 100 {
					t.Errorf("%s: load seq %d issued %d cycles after dispatch: it never waited for the miss", cfg.Name, tr.Seq, wait)
				}
				if tr.Issued != miss.Completed {
					t.Errorf("%s: load seq %d issued at %d, store data arrived at %d: want the same cycle",
						cfg.Name, tr.Seq, tr.Issued, miss.Completed)
				}
				if store.Committed <= miss.Completed {
					continue // the store left the queue first: a cache read
				}
				forwarded++
				// Base reads a single-level register file (no extra read
				// cycles); the two-level file may add an L2 access.
				lat, slack := cfg.LatIntALU+1, int64(0)
				if cfg.RegFile == RFTwoLevel {
					slack = cfg.RFL2Latency
				}
				if got := tr.Completed - miss.Completed; got < lat || got > lat+slack {
					t.Errorf("%s: load seq %d completed %d cycles after the store data arrived, want %d (+%d)",
						cfg.Name, tr.Seq, got, lat, slack)
				}
			}
		}
		if pairs != iters || forwarded < iters/2 {
			t.Errorf("%s: traced %d miss/load pairs (want %d), %d of them forwarded", cfg.Name, pairs, iters, forwarded)
		}
		if st.ForwardedLoads != forwarded || st.Replays > 1 {
			t.Errorf("%s: Stats count %d forwarded loads and %d replays; traces show %d forwarded, and only the first iteration may replay",
				cfg.Name, st.ForwardedLoads, st.Replays, forwarded)
		}
	}
}

// heldIn returns the held set slot rob is in, or noHold when it is on the
// request lines, failing unless it is in exactly one of them.
func heldIn(t *testing.T, q *issueQueue, rob int32) hold {
	t.Helper()
	in, sets := q.membership(rob)
	if sets != 1 {
		t.Fatalf("requesting slot %d is in %d of the request lines and held sets, want exactly one", rob, sets)
	}
	return in
}

// TestDeferredLoadHeldUntilWoken watches the stall of
// TestDeferredLoadBehindPendingStoreData from the select's side. A load
// held by pending store data or by the store-wait table leaves the request
// lines for exactly one held set and sleeps there: the independent
// instruction behind it issues while it is held, the machine may be idle
// (fast-forwardable) while it is held but only when nothing else
// requests, and a forwarding hold ends on the very cycle the store's data
// arrives, when the load requests again.
//
// The bit-vector case: on a WIB with two bit-vectors, a loop of four
// independent misses a round holds every miss past the second for want of
// a bit-vector. No load leaves that hold on a cycle on which no column
// freed, and on each cycle one does, the oldest held load requests again
// and takes it. (That a sleeping load is still one select would turn
// away is the per-cycle Debug check's part, checkRequest.)
func TestDeferredLoadHeldUntilWoken(t *testing.T) {
	t.Run("store-data", heldOnStoreData)
	t.Run("bit-vector", heldOnBitVector)
}

func heldOnStoreData(t *testing.T) {
	b := isa.NewBuilder("sta-std")
	slot := b.AllocWords(8)
	far := b.AllocWords(1024 * 64)
	b.LiAddr(isa.S0, slot)
	b.LiAddr(isa.S1, far)
	var loadPC uint64
	b.Loop(isa.S5, 6, func() {
		b.Ld(isa.T0, isa.S1, 0) // misses to memory
		b.St(isa.T0, isa.S0, 0) // address ready at once, data after the miss
		loadPC = uint64(b.PC())
		b.Ld(isa.T1, isa.S0, 0)       // aliases the store: held
		b.Add(isa.T2, isa.T2, isa.T1) // waits for the held load
		b.Addi(isa.S1, isa.S1, 4096)  // independent: issues past it
	})
	b.Halt()
	prog := b.MustBuild()

	for _, cfg := range []Config{DefaultConfig(), WIBDefault()} {
		p, err := New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		// The load instance being watched, its store (the instruction
		// before it, in the slot before it), and whether at the end of the last cycle it was held
		// on the store's data and the data had arrived.
		var seq, storeSeq, heldSeq uint64
		var rob, store int32
		wasHeld, hadData := false, false
		held, longest, passed, idleHeld, woken := 0, 0, 0, 0, 0
		for !p.halted && p.now < 1_000_000 {
			p.cycle()
			if wasHeld {
				e := p.liveEntry(rob, seq)
				if e == nil {
					t.Fatalf("%s cycle %d: held load seq %d was squashed", cfg.Name, p.now, seq)
				}
				// A store gone from the active list committed, which it does
				// only with its data.
				data := true
				if s := p.liveEntry(store, storeSeq); s != nil {
					data = p.lsq.store(s.sq).dataOK
				}
				stillHeld := e.stage == stRequest && heldIn(t, p.intIQ, rob) == holdForward
				switch {
				case stillHeld && data:
					t.Fatalf("%s cycle %d: load seq %d still held after its store's data arrived", cfg.Name, p.now, seq)
				case !stillHeld && (!data || hadData):
					t.Fatalf("%s cycle %d: load seq %d left its hold, but its store's data did not arrive this cycle", cfg.Name, p.now, seq)
				case !stillHeld:
					woken++ // on the data's cycle, and it requests or has issued
					if e.stage == stRequest && heldIn(t, p.intIQ, rob) != noHold {
						t.Fatalf("%s cycle %d: woken load seq %d is held again", cfg.Name, p.now, seq)
					}
				}
				wasHeld, hadData = stillHeld, data
			}
			idx, found := int32(-1), false
			for i := int32(0); i < p.robCount && !found; i++ {
				idx = (p.robHead + i) % int32(len(p.rob))
				found = p.rob[idx].pc == loadPC && p.rob[idx].stage == stRequest
			}
			if !found {
				held = 0
				continue
			}
			e := &p.rob[idx]
			h := heldIn(t, p.intIQ, idx)
			if h == noHold {
				held = 0
				continue
			}
			if e.seq != heldSeq {
				heldSeq, held = e.seq, 0
			}
			if h == holdForward && !wasHeld {
				seq, rob, store = e.seq, idx, (idx+int32(len(p.rob))-1)%int32(len(p.rob))
				storeSeq = p.rob[store].seq
				wasHeld, hadData = true, false
			}
			if held++; held > longest {
				longest = held
			}
			if p.idle() {
				if p.intIQ.req.n != 0 || p.fpIQ.req.n != 0 {
					t.Fatalf("%s cycle %d: idle with %d+%d requests while load seq %d is held",
						cfg.Name, p.now, p.intIQ.req.n, p.fpIQ.req.n, e.seq)
				}
				idleHeld++
			}
			// The Addi two instructions younger has gone past the held load.
			if y := p.liveEntry((idx+2)%int32(len(p.rob)), e.seq+2); y != nil && y.pc == loadPC+2 && y.stage >= stIssued {
				passed++
			}
		}
		if !p.halted {
			t.Fatalf("%s: no halt", cfg.Name)
		}
		t.Logf("%s: longest hold %d cycles, %d held cycles with the younger Addi issued, %d idle, %d forwarding holds woken by their data",
			cfg.Name, longest, passed, idleHeld, woken)
		if longest < 100 {
			t.Errorf("%s: a load was held for at most %d consecutive cycles; want the length of a memory miss", cfg.Name, longest)
		}
		if passed == 0 {
			t.Errorf("%s: nothing younger ever issued past a held load", cfg.Name)
		}
		if idleHeld == 0 {
			t.Errorf("%s: the machine never idled while a load was held", cfg.Name)
		}
		if woken == 0 {
			t.Errorf("%s: no forwarding hold was seen to end", cfg.Name)
		}
	}
}

func heldOnBitVector(t *testing.T) {
	b := isa.NewBuilder("misses")
	far := b.AllocWords(1024 * 256)
	b.LiAddr(isa.S1, far)
	b.Loop(isa.S5, 8, func() {
		b.Ld(isa.T0, isa.S1, 0) // four misses to distinct lines, no consumers
		b.Ld(isa.T1, isa.S1, 4096)
		b.Ld(isa.T2, isa.S1, 8192)
		b.Ld(isa.T3, isa.S1, 12288)
		b.Addi(isa.S1, isa.S1, 16384)
	})
	b.Halt()
	cfg := WIBConfigSized(2048, 2)
	p, err := New(cfg, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	cols := len(p.wib.cols)
	active, gens := make([]bool, cols), make([]uint64, cols)
	bvHeld := &p.intIQ.held[holdBitVector]
	frees, longest := 0, int64(0)
	since := map[int32]int64{} // held slot -> the cycle its hold began
	for !p.halted && p.now < 1_000_000 {
		oldest := bvHeld.firstFrom(p.robHead)
		before := map[int32]bool{}
		for r := range since {
			before[r] = true
		}
		for c := range p.wib.cols {
			active[c], gens[c] = p.wib.cols[c].active, p.wib.cols[c].gen
		}
		p.cycle()
		freed := false
		for c := range p.wib.cols {
			freed = freed || active[c] && (!p.wib.cols[c].active || p.wib.cols[c].gen != gens[c])
		}
		for r := range before {
			if bvHeld.has(r) {
				continue
			}
			if !freed {
				t.Fatalf("cycle %d: slot %d left its bit-vector hold, but no column freed", p.now, r)
			}
			longest = max(longest, p.now-since[r])
			delete(since, r)
		}
		if freed {
			frees++
			if oldest >= 0 && bvHeld.has(oldest) {
				t.Fatalf("cycle %d: a column freed, but the oldest held load (slot %d) did not take it", p.now, oldest)
			}
		}
		for i, m := range bvHeld.words {
			for ; m != 0; m &= m - 1 {
				r := int32(i*64 + bits.TrailingZeros64(m))
				if heldIn(t, p.intIQ, r) != holdBitVector || p.rob[r].class != isa.ClassLoad {
					t.Fatalf("cycle %d: slot %d in the bit-vector held set is no held load", p.now, r)
				}
				if _, ok := since[r]; !ok {
					since[r] = p.now
				}
			}
		}
		if bvHeld.n > 0 && p.idle() && (p.intIQ.req.n != 0 || p.fpIQ.req.n != 0) {
			t.Fatalf("cycle %d: idle with %d+%d requests while %d loads are held", p.now, p.intIQ.req.n, p.fpIQ.req.n, bvHeld.n)
		}
	}
	if !p.halted {
		t.Fatal("no halt")
	}
	st := p.Statistics()
	t.Logf("%d column frees, longest bit-vector hold %d cycles, %d stalls counted", frees, longest, st.BitVectorStalls)
	if longest < 100 || frees < 16 || st.BitVectorStalls == 0 {
		t.Errorf("%d column frees, longest hold %d cycles, %d stalls: want misses held for a memory latency behind two bit-vectors",
			frees, longest, st.BitVectorStalls)
	}
}

// TestReplayTrapTrainsStoreWait: a load that repeatedly conflicts with an
// older slow store triggers replays at first, then the store-wait table
// suppresses them.
func TestReplayTrapTrainsStoreWait(t *testing.T) {
	b := isa.NewBuilder("conflict")
	slot := b.AllocWords(64)
	far := b.AllocWords(1024 * 64) // miss region to delay the store's data
	b.LiAddr(isa.S0, slot)
	b.LiAddr(isa.S1, far)
	b.Loop(isa.S5, 300, func() {
		// Store whose data comes from a cache miss; the load behind it
		// aliases.
		b.Ld(isa.T0, isa.S1, 0) // miss
		b.St(isa.T0, isa.S0, 0) // data depends on miss; address known early
		b.Ld(isa.T1, isa.S0, 0) // aliases the store
		b.Add(isa.T2, isa.T2, isa.T1)
		b.Addi(isa.S1, isa.S1, 4096) // next miss region
	})
	b.Halt()
	st := runToHalt(t, DefaultConfig(), b.MustBuild())
	// With split STA/STD the store's address resolves early, so the load
	// forwards (stall-until-data) rather than replaying; either mechanism
	// must keep replays far below the iteration count.
	if st.Replays > 100 {
		t.Errorf("replays = %d out of 300 iterations: store-wait not learning", st.Replays)
	}
}

// TestTwoLevelRegfileCostsSomething: the WIB machine with a two-level
// register file must not beat the same machine with an idealized
// single-cycle file.
func TestTwoLevelRegfileCost(t *testing.T) {
	prog := progArraySweep(2048)
	two := WIBDefault()
	one := WIBDefault()
	one.RegFile = RFSingle
	one.Name = "WIB-1lvl"
	sTwo := runToHalt(t, two, prog)
	sOne := runToHalt(t, one, prog)
	if sTwo.IPC > sOne.IPC*1.01 {
		t.Errorf("two-level RF (%.3f) outperformed single-cycle RF (%.3f)", sTwo.IPC, sOne.IPC)
	}
}

// TestEagerPretendMovesEarlier: the eager optimization must produce at
// least as many WIB insertions (chains leave the queue earlier).
func TestEagerPretendMovesEarlier(t *testing.T) {
	prog := progMemAlias()
	lazy := WIBConfigSized(512, 0)
	eager := WIBConfigSized(512, 0)
	eager.WIB.EagerPretend = true
	eager.Name = "WIB-eager"
	sLazy := runToHalt(t, lazy, prog)
	sEager := runToHalt(t, eager, prog)
	if sEager.WIBInsertions == 0 || sLazy.WIBInsertions == 0 {
		t.Skip("workload did not engage the WIB")
	}
	if sEager.WIBInsertions < sLazy.WIBInsertions/2 {
		t.Errorf("eager insertions %d << lazy %d", sEager.WIBInsertions, sLazy.WIBInsertions)
	}
}

// TestTriggerL2MissOnly: triggering only on L2 misses must park fewer
// chains than triggering on any L1 miss, on an L2-resident workload.
func TestTriggerL2MissOnly(t *testing.T) {
	// Working set ~64KB: misses L1, hits L2.
	prog := progArraySweep(8192)
	l1 := WIBConfigSized(512, 0)
	l2 := WIBConfigSized(512, 0)
	l2.WIB.TriggerL2MissOnly = true
	l2.Name = "WIB-l2only"
	sL1 := runToHalt(t, l1, prog)
	sL2 := runToHalt(t, l2, prog)
	if sL2.WIBInsertions > sL1.WIBInsertions {
		t.Errorf("L2-only trigger parked more (%d) than L1 trigger (%d)",
			sL2.WIBInsertions, sL1.WIBInsertions)
	}
}

// TestBitVectorStallsCounted: a heavily MLP-bound kernel with very few
// bit-vectors must record stalls and lose performance vs. unlimited.
func TestBitVectorStallsCounted(t *testing.T) {
	prog := progArraySweep(4096)
	few := WIBConfigSized(2048, 2)
	many := WIBConfigSized(2048, 0)
	sFew := runToHalt(t, few, prog)
	sMany := runToHalt(t, many, prog)
	if sFew.BitVectorStalls == 0 {
		t.Error("2 bit-vectors produced no stalls on an MLP sweep")
	}
	if sFew.IPC >= sMany.IPC {
		t.Errorf("2 bit-vectors (%.3f) not slower than unlimited (%.3f)", sFew.IPC, sMany.IPC)
	}
}

// TestCommitWidthBounds: IPC can never exceed the commit width.
func TestCommitWidthBounds(t *testing.T) {
	st := runToHalt(t, DefaultConfig(), progALUChain())
	if st.IPC > 8 {
		t.Errorf("IPC %.2f exceeds commit width", st.IPC)
	}
}

package core

import (
	"context"
	"errors"
	"testing"

	"largewindow/internal/bpred"
	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/mem"
	"largewindow/internal/workload"
)

// Layer benchmarks for the core's indexed structures (ROADMAP 1(a), 1(d)):
// the issue select, dispatch, the banked reinsertion select, the
// store-queue forward search and the load-queue violation search each get
// a micro-benchmark that must report 0 allocs/op, and BenchmarkBaseCells /
// BenchmarkWIBCells are the profiling harnesses for the whole cell
// (EXPERIMENTS.md, "profiling the simulator itself").

// The repository benchmark's cells: a run-scale kernel for 250k committed
// instructions on the base machine (fig4-base), for 50k on the WIB/2048
// machine (fig4-wib).
const (
	baseCellBudget = 250_000
	wibCellBudget  = 50_000
)

func runCell(tb testing.TB, cfg Config, prog *isa.Program, budget uint64) *Stats {
	tb.Helper()
	p, err := New(cfg, prog)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := p.Run(budget, 0)
	if err != nil && !errors.Is(err, ErrBudget) {
		tb.Fatal(err)
	}
	return st
}

func runBaseCell(tb testing.TB, prog *isa.Program) *Stats {
	return runCell(tb, DefaultConfig(), prog, baseCellBudget)
}

func runWIBCell(tb testing.TB, prog *isa.Program) *Stats {
	return runCell(tb, WIBDefault(), prog, wibCellBudget)
}

// benchCells runs one cell per kernel of the suite per iteration.
func benchCells(b *testing.B, cell func(testing.TB, *isa.Program) *Stats) {
	var progs []*isa.Program
	for _, spec := range workload.All() {
		progs = append(progs, spec.Build(workload.ScaleRun))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			committed += cell(b, prog).Committed
		}
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkBaseCells and BenchmarkWIBCells run exactly the cells of the
// repository benchmark's fig4-base and fig4-wib workloads, one pass per
// iteration.
func BenchmarkBaseCells(b *testing.B) { benchCells(b, runBaseCell) }
func BenchmarkWIBCells(b *testing.B)  { benchCells(b, runWIBCell) }

// scenario is one measured call, shared by a layer benchmark and the
// alloc-free test. The LSQ scenarios search queues sized and filled like
// the WIB/2048 machine's under load: 600 resolved stores to distinct words
// ahead of the probing load, 600 executed loads behind the probing store.
type scenario struct {
	name string
	run  func()
}

const benchQueueFill = 600

func lsqForwardScenarios(tb testing.TB) []scenario {
	l := newLSQ(1024, 1024)
	for i := 0; i < benchQueueFill; i++ {
		resolvedStore(l, uint64(i+1), uint64(i)*8, uint64(i), true)
	}
	// The store the deferred load waits on: address known, data pending.
	pending := resolvedStore(l, benchQueueFill+1, benchQueueFill*8, 0, false)
	for i := 0; i < 7; i++ {
		resolvedStore(l, uint64(benchQueueFill+2+i), uint64(benchQueueFill+1+i)*8, 1, true)
	}
	ld := l.allocLoad(2000, 5000)
	near, far := uint64(benchQueueFill+7)*8, uint64(0)
	absent := uint64(1 << 30)
	for l.sqAddrs.has(absent) {
		absent += 8
	}
	// An address no store holds but whose bucket another store occupies:
	// the filter passes it and the walk covers every older store.
	collide := absent + 8
	for !l.sqAddrs.has(collide) {
		collide += 8
	}
	expect := func(addr uint64, wantFound, wantData bool) func() {
		return func() {
			if _, _, found, dataOK := l.forward(ld, addr); found != wantFound || dataOK != wantData {
				tb.Fatalf("forward(%#x) = found %v dataOK %v", addr, found, dataOK)
			}
		}
	}
	awaitsData := expect(l.store(pending).addr, true, false)
	return []scenario{
		{"hit-near", expect(near, true, true)},
		{"hit-far", expect(far, true, true)},
		{"miss", expect(absent, false, false)},
		{"miss-bucket-collision", expect(collide, false, false)},
		{"deferred-retry", func() {
			// One retry of a load deferred behind pending store data: the
			// store-wait gate's question, then the forward search.
			if l.olderStoreUnknown(ld) {
				tb.Fatal("every store is resolved")
			}
			awaitsData()
		}},
	}
}

// lsqStoreWaitScenarios are a store-wait load's retries: the question
// whether any older store's address is still unknown, asked behind 600
// resolved stores. The unknown store is the oldest of them (the answer is
// yes) or younger than the load (no: every older store has to be ruled
// out).
func lsqStoreWaitScenarios(tb testing.TB) []scenario {
	mk := func(unknownFirst bool) func() {
		l := newLSQ(1024, 1024)
		if unknownFirst {
			l.allocStore(1)
		}
		for i := 0; i < benchQueueFill; i++ {
			resolvedStore(l, uint64(i+2), uint64(i)*8, uint64(i), true)
		}
		ld := l.allocLoad(2000, benchQueueFill+2)
		if !unknownFirst {
			l.allocStore(benchQueueFill + 3)
		}
		return func() {
			if l.olderStoreUnknown(ld) != unknownFirst {
				tb.Fatalf("olderStoreUnknown = %v, want %v", !unknownFirst, unknownFirst)
			}
		}
	}
	return []scenario{{"oldest-unknown", mk(true)}, {"younger-unknown", mk(false)}}
}

func lsqViolationScenarios(tb testing.TB) []scenario {
	l := newLSQ(1024, 1024)
	st := l.allocStore(1)
	for i := 0; i < benchQueueFill; i++ {
		l.executeLoad(l.allocLoad(int32(i+1), uint64(i+2)), uint64(i)*8, 0, 0)
	}
	absent := uint64(1 << 30)
	for l.lqAddrs.has(absent) {
		absent += 8
	}
	expect := func(addr uint64, want bool) func() {
		return func() {
			if _, _, found := l.checkViolation(st, addr); found != want {
				tb.Fatalf("checkViolation(%#x) found = %v", addr, found)
			}
		}
	}
	return []scenario{
		{"none", expect(absent, false)},
		{"youngest-load", expect((benchQueueFill-1)*8, true)},
	}
}

// bankedSelectScenarios builds WIB/2048 machines whose issue queues are
// full, so a reinsertion cycle is pure select — every accessible bank
// offers its oldest eligible instruction and is turned away — and the
// state is the same on every call. sparse has one eligible instruction
// per bank, dense has every active-list slot eligible.
func bankedSelectScenarios(tb testing.TB) []scenario {
	mk := func(every int) func() {
		b := isa.NewBuilder("idle")
		b.Halt()
		p, err := New(WIBDefault(), b.MustBuild())
		if err != nil {
			tb.Fatal(err)
		}
		p.intIQ.count = p.intIQ.size
		p.robHead, p.robTail, p.robCount = 777, 777, int32(len(p.rob))
		for i := range p.rob {
			e := &p.rob[(777+i)%len(p.rob)]
			*e = robEntry{seq: uint64(i + 1), stage: stWaiting, intIQ: true, newPhys: noReg, src1Phys: noReg, src2Phys: noReg}
			if i%every < p.wib.cfg.Banks {
				e.stage = stEligible
				p.wib.setEligibleBit(int32((777+i)%len(p.rob)), e.seq)
				p.wib.occupancy++
			}
		}
		return func() {
			p.now++
			if used := p.wib.reinsertBanked(p, p.cfg.DecodeWidth); used != 0 {
				tb.Fatalf("full issue queue accepted %d reinsertions", used)
			}
		}
	}
	return []scenario{{"sparse", mk(2048)}, {"dense", mk(1)}}
}

// issueSelectScenarios builds machines whose integer functional units are
// all taken this cycle, so a select pass meets its requests, grants none
// and leaves the state as it found it. sparse has a single requester in
// the ring's last slot (the longest walk the scan can make); dense has a
// full issue queue requesting, the head's 31 slots and the last. held is
// a WIB machine with 4 such requests and 64 loads held for want of a
// bit-vector, one every 32 slots: the pass counts them as examined
// without examining them.
func issueSelectScenarios(tb testing.TB) []scenario {
	mk := func(cfg Config, requesters, held int) func() {
		b := isa.NewBuilder("idle")
		b.Halt()
		p, err := New(cfg, b.MustBuild())
		if err != nil {
			tb.Fatal(err)
		}
		slots := cfg.ActiveList
		head := int32(slots / 3)
		p.robHead, p.robTail, p.robCount = head, head, int32(slots)
		for i := range p.rob {
			idx := (head + int32(i)) % int32(slots)
			p.rob[idx] = robEntry{seq: uint64(i + 1), class: isa.ClassIntALU, stage: stDone, done: true,
				intIQ: true, newPhys: noReg, src1Phys: noReg, src2Phys: noReg}
			switch e := &p.rob[idx]; {
			case i < requesters-1 || i == slots-1:
				e.stage, e.done = stRequest, false
				p.intIQ.req.add(idx)
				p.intIQ.count++
			case held > 0 && i%(slots/held) == slots/held/2:
				e.class, e.stage, e.done = isa.ClassLoad, stRequest, false
				p.intIQ.held[holdBitVector].add(idx)
				p.intIQ.count++
			}
		}
		for {
			if _, ok := p.fus.tryIssue(isa.ClassIntALU, p.now); !ok {
				break
			}
		}
		return func() {
			stalls := p.stats.BitVectorStalls
			p.issueFrom(p.intIQ, p.cfg.IssueInt)
			if p.intIQ.req.n != requesters || p.intIQ.held[holdBitVector].n != held {
				tb.Fatalf("select with no free unit left %d of %d requests and %d of %d held loads",
					p.intIQ.req.n, requesters, p.intIQ.held[holdBitVector].n, held)
			}
			if got := p.stats.BitVectorStalls - stalls; got != uint64(held) {
				tb.Fatalf("select went past %d held loads, want all %d", got, held)
			}
		}
	}
	sized := func(slots int) Config {
		cfg := DefaultConfig()
		cfg.ActiveList = slots
		return cfg
	}
	return []scenario{
		{"sparse-128", mk(sized(128), 1, 0)}, {"dense-128", mk(sized(128), 32, 0)},
		{"sparse-2048", mk(sized(2048), 1, 0)}, {"dense-2048", mk(sized(2048), 32, 0)},
		{"held-2048", mk(WIBConfigSized(2048, 16), 4, 64)},
	}
}

// dispatchScenarios renames one decode group — integer and FP arithmetic,
// a load and a store, every one with a destination or an LSQ slot to
// claim — into an idle base machine and squashes it again, so each call
// starts from the same state.
func dispatchScenarios(tb testing.TB) []scenario {
	b := isa.NewBuilder("group")
	slot := b.AllocWords(1)
	b.LiAddr(isa.S0, slot)
	first := b.PC()
	b.Ld(isa.T0, isa.S0, 0)
	b.Addi(isa.T1, isa.T0, 1)
	b.Mul(isa.T2, isa.T1, isa.T1)
	b.St(isa.T2, isa.S0, 0)
	b.Fadd(isa.F1, isa.F2, isa.F3)
	b.Fmul(isa.F4, isa.F1, isa.F1)
	b.Add(isa.T3, isa.T2, isa.T0)
	b.Slli(isa.T4, isa.T3, 2)
	b.Halt()
	prog := b.MustBuild()
	p, err := New(DefaultConfig(), prog)
	if err != nil {
		tb.Fatal(err)
	}
	group := make([]ifqEntry, p.cfg.DecodeWidth)
	for i := range group {
		pc := uint64(first + i)
		group[i] = ifqEntry{pc: pc, in: prog.Code[pc]}
	}
	return []scenario{{"decode-group", func() {
		start := p.nextSeq
		for i := range group {
			if !p.dispatchOne(&group[i]) {
				tb.Fatalf("dispatch stalled at instruction %d of an empty machine", i)
			}
		}
		p.squashFrom(start, true)
		if p.robCount != 0 || p.intIQ.count != 0 || p.fpIQ.count != 0 || p.intIQ.req.n != 0 {
			tb.Fatalf("squash left %d entries, %d+%d queued, %d requesting", p.robCount, p.intIQ.count, p.fpIQ.count, p.intIQ.req.n)
		}
	}}}
}

// eventQueueScenarios is one cycle's traffic through the event queue at
// steady state: three completions scheduled — short latencies, an L2 miss
// now and then, and every 64th cycle one beyond the calendar's horizon, so
// the overflow list and its migration are on the measured path — and
// everything due popped.
func eventQueueScenarios(tb testing.TB) []scenario {
	var q eventQueue
	lat := [8]int64{1, 1, 2, 1, 4, 3, 1, 250}
	var now int64
	var seq uint64
	cycle := func() {
		now++
		for i := 0; i < 3; i++ {
			seq++
			d := lat[seq*2654435761>>7&7]
			if i == 0 && now&63 == 0 {
				d = calSlots + 500
			}
			q.schedule(event{cycle: now + d, seq: seq, rob: int32(seq & 127)})
		}
		for _, due := q.popDue(now); due; _, due = q.popDue(now) {
		}
	}
	for i := 0; i < 4*calSlots; i++ {
		cycle() // grow the arena to its steady size
	}
	return []scenario{{"cycle", func() {
		cycle()
		if q.len() == 0 || q.len() > 200 {
			tb.Fatalf("%d events pending at steady state", q.len())
		}
	}}}
}

func runScenarios(b *testing.B, scenarios []scenario) {
	for _, s := range scenarios {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.run()
			}
		})
	}
}

func BenchmarkLSQForward(b *testing.B)        { runScenarios(b, lsqForwardScenarios(b)) }
func BenchmarkLSQStoreWait(b *testing.B)      { runScenarios(b, lsqStoreWaitScenarios(b)) }
func BenchmarkLSQCheckViolation(b *testing.B) { runScenarios(b, lsqViolationScenarios(b)) }
func BenchmarkReinsertBanked(b *testing.B)    { runScenarios(b, bankedSelectScenarios(b)) }
func BenchmarkIssueSelect(b *testing.B)       { runScenarios(b, issueSelectScenarios(b)) }
func BenchmarkDispatch(b *testing.B)          { runScenarios(b, dispatchScenarios(b)) }
func BenchmarkEventQueue(b *testing.B)        { runScenarios(b, eventQueueScenarios(b)) }

// TestIndexedPathsAllocFree asserts what the layer benchmarks report: the
// indexed searches, both selects, dispatch and the event queue allocate
// nothing.
func TestIndexedPathsAllocFree(t *testing.T) {
	for _, group := range [][]scenario{lsqForwardScenarios(t), lsqStoreWaitScenarios(t), lsqViolationScenarios(t), bankedSelectScenarios(t),
		issueSelectScenarios(t), dispatchScenarios(t), eventQueueScenarios(t)} {
		for _, s := range group {
			if allocs := testing.AllocsPerRun(200, s.run); allocs != 0 {
				t.Errorf("%s: %v allocs/op, want 0", s.name, allocs)
			}
		}
	}
}

// checkCellAllocBudget holds a cell to what core.New allocates (machine
// construction) plus a fixed slack for the structures that legitimately
// grow once per run.
func checkCellAllocBudget(t *testing.T, cfg Config, cell func(testing.TB, *isa.Program) *Stats, slack float64) {
	for _, name := range []string{"perimeter", "em3d", "mgrid"} {
		spec, ok := workload.Get(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		prog := spec.Build(workload.ScaleRun)
		construct := testing.AllocsPerRun(3, func() {
			if _, err := New(cfg, prog); err != nil {
				t.Fatal(err)
			}
		})
		run := testing.AllocsPerRun(3, func() { cell(t, prog) })
		t.Logf("%s/%s: core.New %.0f allocs, cell %.0f", cfg.Name, name, construct, run)
		if run > construct+slack {
			t.Errorf("%s/%s: cell allocates %.0f, budget is core.New's %.0f + %.0f", cfg.Name, name, run, construct, slack)
		}
	}
}

// TestWIBCellAllocBudget gates the 50k-instruction WIB/2048 cell. What a
// run adds to core.New (33-66 here) is growth that pays once per run: the
// memory image's private page runs, the event queue, a waiter block per
// 256 first shares, and the doublings of the WIB's column scratch. A
// waiter list that outgrows its share takes a larger one from the block,
// so lists no longer grow one array of their own at a time: when they
// did, perimeter's cell allocated 1268 against core.New's 90, under a
// slack of 1500 (and 4400-6100 before the blocks and the row arena).
func TestWIBCellAllocBudget(t *testing.T) { checkCellAllocBudget(t, WIBDefault(), runWIBCell, 80) }

// TestBaseCellAllocBudget gates the 250k-instruction base cell. With no
// WIB, what a run adds to core.New (8-34 here) is the event queue's
// growth, a waiter block per 256 first shares, and the memory image's
// private copies of the pages the kernel stores to, taken in runs of up
// to 8 pages. When each copy was an allocation of its own, em3d's cell
// allocated 249 against core.New's 64, under a slack of 300.
func TestBaseCellAllocBudget(t *testing.T) {
	checkCellAllocBudget(t, DefaultConfig(), runBaseCell, 40)
}

// TestWindowAllocBudget gates what a sampled window builds. RunWindow
// with Hier, Bpred and Start set builds the processor's own structures
// and nothing else: exactly core.New's allocations less a cold
// hierarchy's, predictor's and memory image's. Running the window then
// adds only the restore (a copy-on-write clone of the shared
// checkpoint's image) and what a short window grows: the memory's private page runs,
// the event queue, the waiter blocks and, on WIB machines, the column
// scratch (8-40 allocations over the build on these six windows).
func TestWindowAllocBudget(t *testing.T) {
	const slack = 50
	ctx := context.Background()
	for _, cfg := range []Config{DefaultConfig(), WIBDefault()} {
		for _, name := range []string{"em3d", "gcc", "swim"} {
			spec, ok := workload.Get(name)
			if !ok {
				t.Fatalf("no kernel %q", name)
			}
			prog := spec.Build(workload.ScaleRun)
			m := emu.New(prog)
			warm := WarmSink{H: mem.NewHierarchy(cfg.Mem), BP: bpred.New(cfg.Bpred)}
			if _, err := m.RunSink(100_000, warm); err != nil && !errors.Is(err, emu.ErrNotHalted) {
				t.Fatal(err)
			}
			w := Window{Start: m.Checkpoint(), Hier: warm.H.CloneInto(nil), Bpred: warm.BP.Clone(), Measure: 5000}
			allocs := func(f func() error) float64 {
				return testing.AllocsPerRun(10, func() {
					if err := f(); err != nil {
						t.Fatal(err)
					}
				})
			}
			cold := allocs(func() error { _, err := New(cfg, prog); return err })
			parts := allocs(func() error {
				mem.NewHierarchy(cfg.Mem)
				bpred.New(cfg.Bpred)
				prog.NewMemoryImage()
				return nil
			})
			built := allocs(func() error { _, err := newProcessor(cfg, prog, w); return err })
			run := allocs(func() error {
				warm.H.CloneInto(w.Hier)
				warm.BP.CloneInto(w.Bpred)
				res, err := RunWindow(ctx, cfg, prog, w)
				if err == nil && !res.Measured {
					t.Fatalf("%s/%s: the window never opened", cfg.Name, name)
				}
				return err
			})
			t.Logf("%s/%s: New %.0f, cold state %.0f, window build %.0f, window run %.0f", cfg.Name, name, cold, parts, built, run)
			if built != cold-parts {
				t.Errorf("%s/%s: a window with its own state builds %.0f allocations, want New's %.0f less the cold state's %.0f",
					cfg.Name, name, built, cold, parts)
			}
			if run > built+slack {
				t.Errorf("%s/%s: the window allocates %.0f, budget is its build's %.0f + %d", cfg.Name, name, run, built, slack)
			}
		}
	}
}

package core

import (
	"errors"
	"testing"

	"largewindow/internal/isa"
	"largewindow/internal/workload"
)

// Layer benchmarks for the WIB core's indexed structures (ROADMAP 1(a)):
// the banked reinsertion select, the store-queue forward search and the
// load-queue violation search each get a micro-benchmark that must report
// 0 allocs/op, and BenchmarkWIBCells is the profiling harness for the
// whole cell (EXPERIMENTS.md, "profiling the simulator itself").

// wibCellBudget is the benchmark's fig4-wib cell: 50k committed
// instructions of a run-scale kernel on the WIB/2048 machine.
const wibCellBudget = 50_000

func runWIBCell(tb testing.TB, prog *isa.Program) *Stats {
	tb.Helper()
	p, err := New(WIBDefault(), prog)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := p.Run(wibCellBudget, 0)
	if err != nil && !errors.Is(err, ErrBudget) {
		tb.Fatal(err)
	}
	return st
}

// BenchmarkWIBCells runs exactly the cells of the repository benchmark's
// fig4-wib workload, one pass per iteration.
func BenchmarkWIBCells(b *testing.B) {
	var progs []*isa.Program
	for _, spec := range workload.All() {
		progs = append(progs, spec.Build(workload.ScaleRun))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			committed += runWIBCell(b, prog).Committed
		}
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "instrs/s")
}

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
		resolvedStore(l, int32(i), uint64(i+1), uint64(i)*8, uint64(i), true)
	}
	// The store the deferred load waits on: address known, data pending.
	pending := resolvedStore(l, benchQueueFill, benchQueueFill+1, benchQueueFill*8, 0, false)
	for i := 0; i < 7; i++ {
		resolvedStore(l, int32(benchQueueFill+1+i), uint64(benchQueueFill+2+i), uint64(benchQueueFill+1+i)*8, 1, true)
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

func lsqViolationScenarios(tb testing.TB) []scenario {
	l := newLSQ(1024, 1024)
	st := l.allocStore(0, 1)
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
func BenchmarkLSQCheckViolation(b *testing.B) { runScenarios(b, lsqViolationScenarios(b)) }
func BenchmarkReinsertBanked(b *testing.B)    { runScenarios(b, bankedSelectScenarios(b)) }

// TestIndexedPathsAllocFree asserts what the layer benchmarks report: the
// indexed searches and the banked select allocate nothing.
func TestIndexedPathsAllocFree(t *testing.T) {
	for _, group := range [][]scenario{lsqForwardScenarios(t), lsqViolationScenarios(t), bankedSelectScenarios(t)} {
		for _, s := range group {
			if allocs := testing.AllocsPerRun(200, s.run); allocs != 0 {
				t.Errorf("%s: %v allocs/op, want 0", s.name, allocs)
			}
		}
	}
}

// TestWIBCellAllocBudget gates the WIB/2048 cell's allocations: what
// core.New allocates (machine construction) plus a fixed slack for the
// structures that legitimately grow once per run: the event queue, the
// issue-request heaps, the deferred-load lists, the waiter blocks (16) and
// the row arena's doublings, and — the bulk of it — a register whose
// waiter list outgrows its waiterSlabCap share (perimeter and swim
// re-register reinserted consumers on ~1100 registers). Before the blocks
// and the arena this cell paid one growslice chain per physical register
// and per bit-vector column: 4400-6100 allocations on these kernels.
func TestWIBCellAllocBudget(t *testing.T) {
	const slack = 1500
	for _, name := range []string{"perimeter", "em3d", "mgrid"} {
		spec, ok := workload.Get(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		prog := spec.Build(workload.ScaleRun)
		construct := testing.AllocsPerRun(3, func() {
			if _, err := New(WIBDefault(), prog); err != nil {
				t.Fatal(err)
			}
		})
		cell := testing.AllocsPerRun(3, func() { runWIBCell(t, prog) })
		t.Logf("%s: core.New %.0f allocs, 50k-instruction cell %.0f", name, construct, cell)
		if cell > construct+slack {
			t.Errorf("%s: cell allocates %.0f, budget is core.New's %.0f + %d", name, cell, construct, slack)
		}
	}
}

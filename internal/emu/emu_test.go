package emu

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"largewindow/internal/isa"
)

// iterativeFactorial builds n! with a loop.
func iterativeFactorial(n int32) *isa.Program {
	b := isa.NewBuilder("fact")
	b.Li(isa.A0, 1)
	b.Li(isa.T0, 1)
	b.Li(isa.T1, n)
	top := b.Here()
	b.Mul(isa.A0, isa.A0, isa.T0)
	b.Addi(isa.T0, isa.T0, 1)
	b.Bge(isa.T1, isa.T0, top)
	b.Halt()
	return b.MustBuild()
}

func TestFactorial(t *testing.T) {
	m := New(iterativeFactorial(10))
	if _, err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	if m.IntReg[isa.A0] != 3628800 {
		t.Errorf("10! = %d, want 3628800", m.IntReg[isa.A0])
	}
	if !m.Halted {
		t.Error("machine not halted")
	}
}

func TestRecursiveFibonacci(t *testing.T) {
	// fib(n) via genuine recursion: exercises Jal/Jr, the stack, and Push/Pop.
	b := isa.NewBuilder("fib")
	fib := b.NewLabel()
	b.Li(isa.A0, 12)
	b.Call(fib)
	b.Halt()

	b.Bind(fib)
	done := b.NewLabel()
	b.Slti(isa.T0, isa.A0, 2)
	b.Bne(isa.T0, isa.Zero, done) // n < 2: return n
	b.Push(isa.RA, isa.S0, isa.A0)
	b.Addi(isa.A0, isa.A0, -1)
	b.Call(fib)
	b.Mov(isa.S0, isa.A0) // fib(n-1)
	b.Ld(isa.A0, isa.SP, 16)
	b.Addi(isa.A0, isa.A0, -2)
	b.Call(fib)
	b.Add(isa.A0, isa.A0, isa.S0)
	// Restore RA and S0 but not A0 (it carries the result).
	b.Ld(isa.RA, isa.SP, 0)
	b.Ld(isa.S0, isa.SP, 8)
	b.Addi(isa.SP, isa.SP, 24)
	b.Bind(done)
	b.Ret()

	m := New(b.MustBuild())
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.IntReg[isa.A0] != 144 {
		t.Errorf("fib(12) = %d, want 144", m.IntReg[isa.A0])
	}
	if m.IntReg[isa.SP] != isa.StackBase {
		t.Errorf("stack not balanced: SP = %#x", m.IntReg[isa.SP])
	}
}

func TestMemcpyProgram(t *testing.T) {
	b := isa.NewBuilder("memcpy")
	const n = 64
	src := b.AllocWords(n)
	dst := b.AllocWords(n)
	for i := uint64(0); i < n; i++ {
		b.SetWord(src+i*8, i*i+1)
	}
	b.LiAddr(isa.A0, src)
	b.LiAddr(isa.A1, dst)
	b.Loop(isa.T0, n, func() {
		b.Ld(isa.T1, isa.A0, 0)
		b.St(isa.T1, isa.A1, 0)
		b.Addi(isa.A0, isa.A0, 8)
		b.Addi(isa.A1, isa.A1, 8)
	})
	b.Halt()
	m := New(b.MustBuild())
	if _, err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if got := m.Mem.ReadWord(dst + i*8); got != i*i+1 {
			t.Fatalf("dst[%d] = %d, want %d", i, got, i*i+1)
		}
	}
}

func TestFloatKernel(t *testing.T) {
	// Dot product of two 16-element vectors.
	b := isa.NewBuilder("dot")
	const n = 16
	x := b.AllocWords(n)
	y := b.AllocWords(n)
	var want float64
	for i := uint64(0); i < n; i++ {
		xv, yv := float64(i)+0.5, 2.0*float64(i)-3.0
		b.SetF64(x+i*8, xv)
		b.SetF64(y+i*8, yv)
		want += xv * yv
	}
	b.LiAddr(isa.A0, x)
	b.LiAddr(isa.A1, y)
	b.Li(isa.T2, 0)
	b.Fcvt(isa.F0, isa.T2) // acc = 0.0
	b.Loop(isa.T0, n, func() {
		b.Fld(isa.F1, isa.A0, 0)
		b.Fld(isa.F2, isa.A1, 0)
		b.Fmul(isa.F1, isa.F1, isa.F2)
		b.Fadd(isa.F0, isa.F0, isa.F1)
		b.Addi(isa.A0, isa.A0, 8)
		b.Addi(isa.A1, isa.A1, 8)
	})
	b.Halt()
	m := New(b.MustBuild())
	if _, err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	if got := isa.U2F(m.FPReg[isa.F0]); got != want {
		t.Errorf("dot = %g, want %g", got, want)
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	b := isa.NewBuilder("zero")
	b.Li(isa.Zero, 42)
	b.Addi(isa.Zero, isa.Zero, 7)
	b.Mov(isa.T0, isa.Zero)
	b.Halt()
	m := New(b.MustBuild())
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.IntReg[isa.Zero] != 0 || m.IntReg[isa.T0] != 0 {
		t.Errorf("zero register corrupted: %d %d", m.IntReg[isa.Zero], m.IntReg[isa.T0])
	}
}

func TestBudgetExpiry(t *testing.T) {
	b := isa.NewBuilder("inf")
	top := b.Here()
	b.J(top)
	m := New(b.MustBuild())
	n, err := m.Run(100)
	if !errors.Is(err, ErrNotHalted) {
		t.Errorf("err = %v, want ErrNotHalted", err)
	}
	if n != 100 {
		t.Errorf("executed %d, want 100", n)
	}
}

func TestPCOutOfRange(t *testing.T) {
	b := isa.NewBuilder("fall")
	b.Nop() // falls off the end
	m := New(b.MustBuild())
	if _, err := m.Run(10); err == nil || errors.Is(err, ErrNotHalted) {
		t.Errorf("expected out-of-range error, got %v", err)
	}
}

func TestStepAfterHalt(t *testing.T) {
	b := isa.NewBuilder("halt")
	b.Halt()
	m := New(b.MustBuild())
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	before := m.InstrCount
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if m.InstrCount != before {
		t.Error("Step after halt executed an instruction")
	}
}

func TestBranchStats(t *testing.T) {
	b := isa.NewBuilder("branches")
	b.Li(isa.T0, 4)
	top := b.Here()
	b.Addi(isa.T0, isa.T0, -1)
	b.Bne(isa.T0, isa.Zero, top) // taken 3, not-taken 1
	next := b.NewLabel()
	b.Beq(isa.Zero, isa.Zero, next) // always taken
	b.Bind(next)
	b.Halt()
	m := New(b.MustBuild())
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.CondCount != 5 {
		t.Errorf("cond branches = %d, want 5", m.CondCount)
	}
	if m.TakenCond != 4 {
		t.Errorf("taken = %d, want 4", m.TakenCond)
	}
}

func TestStreamHashDiscriminates(t *testing.T) {
	p1 := iterativeFactorial(5)
	p2 := iterativeFactorial(6)
	m1, m2, m3 := New(p1), New(p1), New(p2)
	for _, m := range []*Machine{m1, m2, m3} {
		if _, err := m.Run(10000); err != nil {
			t.Fatal(err)
		}
	}
	if m1.StreamHash != m2.StreamHash {
		t.Error("identical executions produced different stream hashes")
	}
	if m1.StreamHash == m3.StreamHash {
		t.Error("different executions produced identical stream hashes")
	}
}

func TestSnapshotEquality(t *testing.T) {
	m1, m2 := New(iterativeFactorial(8)), New(iterativeFactorial(8))
	for _, m := range []*Machine{m1, m2} {
		if _, err := m.Run(10000); err != nil {
			t.Fatal(err)
		}
	}
	if m1.Snapshot() != m2.Snapshot() {
		t.Error("deterministic program produced differing snapshots")
	}
}

func TestClassMix(t *testing.T) {
	m := New(iterativeFactorial(5))
	if _, err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	if m.ClassMix[isa.ClassIntMult] != 5 {
		t.Errorf("mult count = %d, want 5", m.ClassMix[isa.ClassIntMult])
	}
	if m.ClassMix[isa.ClassHalt] != 1 {
		t.Errorf("halt count = %d", m.ClassMix[isa.ClassHalt])
	}
}

func TestInitialRegisters(t *testing.T) {
	b := isa.NewBuilder("init")
	b.Halt()
	p := b.MustBuild()
	m := New(p)
	if m.IntReg[isa.SP] != p.StackTop {
		t.Errorf("SP = %#x, want %#x", m.IntReg[isa.SP], p.StackTop)
	}
	if m.IntReg[isa.GP] != p.DataBase {
		t.Errorf("GP = %#x, want %#x", m.IntReg[isa.GP], p.DataBase)
	}
}

// TestProgramCollectableAfterRun: the decode table hangs off the Program,
// so a program that was emulated and then dropped — the facade builds a
// fresh one per WorkloadProgram call — is garbage, decode table, data
// image and all. (A process-global predecode cache keyed by *Program used
// to pin every program ever run.)
func TestProgramCollectableAfterRun(t *testing.T) {
	freed := make(chan struct{})
	func() {
		p := iterativeFactorial(10)
		runtime.SetFinalizer(p, func(*isa.Program) { close(freed) })
		m := New(p)
		if _, err := m.Run(1 << 20); err != nil {
			t.Fatal(err)
		}
		if len(p.Decoded()) != len(p.Code) {
			t.Fatalf("decode table has %d entries for %d instructions", len(p.Decoded()), len(p.Code))
		}
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("an emulated program was still reachable after its last user dropped it")
}

// TestRunSinkNilWarmLog: a nil *WarmLog handed to RunSink is a non-nil
// WarmSink interface value; it must mean "no sink", not a nil dereference
// on the first fetch line.
func TestRunSinkNilWarmLog(t *testing.T) {
	want := New(iterativeFactorial(10))
	if _, err := want.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	m := New(iterativeFactorial(10))
	if _, err := m.RunSink(1<<20, (*WarmLog)(nil)); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot() != want.Snapshot() {
		t.Error("RunSink with a nil log diverges from Run")
	}
}

// TestRunLoopAllocFree: with the decode table built and every page the
// kernel writes already private, the run loop allocates nothing, whatever
// it reports to — the register array, the counters and the sink record
// all stay on its stack.
func TestRunLoopAllocFree(t *testing.T) {
	prog := checkpointZoo()[2] // the striding store/load loops
	m := New(prog)
	if _, err := m.Run(1 << 20); err != nil { // builds the table, privatises the pages
		t.Fatal(err)
	}
	log := NewWarmLog(64, 64, 64)
	var sink countSink
	for name, run := range map[string]func() (uint64, error){
		"Run":         func() (uint64, error) { return m.Run(1 << 20) },
		"RunSink/log": func() (uint64, error) { return m.RunSink(1<<20, log) },
		"RunSink":     func() (uint64, error) { return m.RunSink(1<<20, &sink) },
		"RunProfile":  func() (uint64, error) { return m.RunProfile(1<<20, nopProfile{}) },
	} {
		allocs := testing.AllocsPerRun(20, func() {
			m.PC, m.Halted = prog.Entry, false
			if n, err := run(); err != nil || n == 0 {
				t.Fatalf("%s: ran %d instructions, err %v", name, n, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per run, want 0", name, allocs)
		}
	}
}

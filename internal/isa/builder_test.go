package isa

import (
	"reflect"
	"strings"
	"testing"
)

func TestBuilderForwardAndBackwardLabels(t *testing.T) {
	b := NewBuilder("labels")
	end := b.NewLabel()
	top := b.Here()  // pc 0
	b.J(end)         // pc 0... wait, Here() binds before any emission
	b.Beq(1, 2, top) // backward
	b.Bind(end)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// pc0: j end(=2): imm = 2-0-1 = 1
	if p.Code[0].Imm != 1 {
		t.Errorf("forward jump imm = %d, want 1", p.Code[0].Imm)
	}
	// pc1: beq top(=0): imm = 0-1-1 = -2
	if p.Code[1].Imm != -2 {
		t.Errorf("backward branch imm = %d, want -2", p.Code[1].Imm)
	}
}

func TestBuilderUnboundLabel(t *testing.T) {
	b := NewBuilder("unbound")
	l := b.NewLabel()
	b.J(l)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("expected unbound-label error, got %v", err)
	}
}

func TestBuilderDoubleBind(t *testing.T) {
	b := NewBuilder("dbl")
	l := b.NewLabel()
	b.Bind(l)
	b.Bind(l)
	if _, err := b.Build(); err == nil {
		t.Error("double bind accepted")
	}
}

func TestBuilderAllocAlignment(t *testing.T) {
	b := NewBuilder("alloc")
	a1 := b.Alloc(3) // rounds to 8
	a2 := b.Alloc(8)
	a3 := b.AllocWords(2)
	if a1 != HeapBase {
		t.Errorf("first alloc at %#x, want %#x", a1, HeapBase)
	}
	if a2 != a1+8 {
		t.Errorf("alloc not aligned: a2=%#x", a2)
	}
	if a3 != a2+8 {
		t.Errorf("a3=%#x", a3)
	}
	if b.HeapSize() != 32 {
		t.Errorf("heap size = %d, want 32", b.HeapSize())
	}
}

func TestBuilderDataImage(t *testing.T) {
	b := NewBuilder("data")
	w := b.Word(99)
	b.SetF64(w+8, 2.5)
	b.SetWord(w+16, 7)
	b.SetWord(w+16, 0) // zero write removes the entry
	b.Halt()
	p := b.MustBuild()
	m := p.NewMemoryImage()
	if m.ReadWord(w) != 99 {
		t.Error("Word initial value missing")
	}
	if m.ReadF64(w+8) != 2.5 {
		t.Error("SetF64 value missing")
	}
	if got := p.Image.NonZeroWords(); got != 2 {
		t.Errorf("image holds %d non-zero words, want 2 (the zeroed word must be gone)", got)
	}
}

// TestBuilderImagePages: the image's page set is exactly the pages that
// hold a non-zero word — what loading a map of non-zero words produced —
// so checkpoint page lists do not depend on how the kernel initialised
// its data. A word set then zeroed leaves no page behind.
func TestBuilderImagePages(t *testing.T) {
	b := NewBuilder("pages")
	keep := b.Alloc(PageBytes)
	gone := b.Alloc(4 * PageBytes)
	b.SetWord(keep+8, 1)
	b.SetWord(gone+2*PageBytes, 7)
	b.SetWord(gone+2*PageBytes, 0)
	b.SetWord(gone+3*PageBytes, 0) // zero onto an untouched page
	b.SetWord(uint64(5)<<32, 9)    // beyond the page table
	b.SetWord(uint64(5)<<32, 0)    // ... and zeroed again
	b.SetWord(uint64(6)<<32+PageBytes, 3)
	b.Halt()
	p := b.MustBuild()
	want := []uint64{keep / PageBytes, (uint64(6)<<32 + PageBytes) / PageBytes}
	if got := p.Image.PageList(); !reflect.DeepEqual(got, want) {
		t.Errorf("image pages = %v, want %v", got, want)
	}
	if got := p.NewMemoryImage().Pages(); got != len(want) {
		t.Errorf("Pages() = %d, want %d", got, len(want))
	}
	if !p.Image.Frozen() {
		t.Error("program image is not frozen")
	}
}

func TestBuilderProgramIsolation(t *testing.T) {
	// Mutating a built program must not affect the builder or later builds.
	b := NewBuilder("iso")
	b.Word(5)
	b.Halt()
	p1 := b.MustBuild()
	p1.Code[0] = Instr{Op: OpNop}
	m1 := p1.NewMemoryImage()
	m1.WriteWord(HeapBase, 123)
	if got := p1.NewMemoryImage().ReadWord(HeapBase); got != 5 {
		t.Errorf("memory-image write leaked into a second image of the program: %d", got)
	}
	b.SetWord(HeapBase, 6) // the builder moves on; p1 must not
	p2 := b.MustBuild()
	if p2.Code[0].Op != OpHalt {
		t.Error("code mutation leaked between builds")
	}
	if got := p1.NewMemoryImage().ReadWord(HeapBase); got != 5 {
		t.Errorf("builder write after Build leaked into the built program: %d", got)
	}
	if got := p2.NewMemoryImage().ReadWord(HeapBase); got != 6 {
		t.Errorf("second build reads %d, want 6", got)
	}
}

func TestBuilderLi64(t *testing.T) {
	neg := func(v int64) uint64 { return uint64(v) }
	cases := []uint64{
		0, 1, 42, 0x7fffffff, uint64(1) << 31, 0xffffffff,
		uint64(1) << 32, 0xdeadbeefcafebabe, ^uint64(0), uint64(1) << 63,
		neg(-1), neg(-12345), neg(-1 << 40),
	}
	for _, v := range cases {
		b := NewBuilder("li64")
		b.Li64(T0, v)
		b.Halt()
		p := b.MustBuild()
		got := runToHaltIntReg(t, p, T0)
		if got != v {
			t.Errorf("Li64(%#x) produced %#x", v, got)
		}
	}
}

func TestBuilderLiAddr(t *testing.T) {
	b := NewBuilder("liaddr")
	b.LiAddr(T0, HeapBase)
	b.Halt()
	p := b.MustBuild()
	if len(p.Code) != 2 {
		t.Errorf("LiAddr of small address should be 1 instruction, code len = %d", len(p.Code))
	}
	if got := runToHaltIntReg(t, p, T0); got != HeapBase {
		t.Errorf("LiAddr = %#x, want %#x", got, HeapBase)
	}
}

// runToHaltIntReg interprets the program with a trivial in-package
// interpreter (the full emulator lives in internal/emu and would be an
// import cycle from this test's perspective only by convention; keeping a
// 20-line interpreter here also cross-checks emu independently).
func runToHaltIntReg(t *testing.T, p *Program, r Reg) uint64 {
	t.Helper()
	var regs [NumRegs]uint64
	var fregs [NumRegs]uint64
	mem := p.NewMemoryImage()
	regs[SP] = p.StackTop
	regs[GP] = p.DataBase
	pc := p.Entry
	for steps := 0; steps < 1_000_000; steps++ {
		if pc >= uint64(len(p.Code)) {
			t.Fatalf("pc %d out of range", pc)
		}
		in := p.Code[pc]
		read := func(ref RegRef) uint64 {
			switch {
			case !ref.Valid:
				return 0
			case ref.FP:
				return fregs[ref.N]
			case ref.N == Zero:
				return 0
			default:
				return regs[ref.N]
			}
		}
		rs1, rs2 := read(in.Src1()), read(in.Src2())
		next := pc + 1
		switch in.Op.Class() {
		case ClassHalt:
			return regs[r]
		case ClassLoad:
			v := mem.ReadWord(EffAddr(in, rs1))
			if d := in.Dest(); d.FP {
				fregs[d.N] = v
			} else if d.N != Zero {
				regs[d.N] = v
			}
		case ClassStore:
			mem.WriteWord(EffAddr(in, rs1), rs2)
		case ClassBranch:
			if BranchTaken(in, rs1, rs2) {
				next = in.Target(pc)
			}
		case ClassJump:
			switch in.Op {
			case OpJr:
				next = rs1
			case OpJal:
				regs[in.Rd] = pc + 1
				next = in.Target(pc)
			default:
				next = in.Target(pc)
			}
		case ClassNop:
		default:
			v := Eval(in, rs1, rs2, pc)
			if d := in.Dest(); d.Valid {
				if d.FP {
					fregs[d.N] = v
				} else if d.N != Zero {
					regs[d.N] = v
				}
			}
		}
		pc = next
	}
	t.Fatal("program did not halt")
	return 0
}

func TestBuilderLoopAndStack(t *testing.T) {
	// sum 1..10 with Loop; exercise Push/Pop around it.
	b := NewBuilder("loop")
	b.Li(S0, 1234)
	b.Push(S0)
	b.Li(S0, 0)
	b.Li(T1, 0)
	b.Loop(T0, 10, func() {
		b.Addi(T1, T1, 1)
		b.Add(S0, S0, T1)
	})
	b.Mov(A0, S0)
	b.Pop(S0)
	b.Halt()
	p := b.MustBuild()
	if got := runToHaltIntReg(t, p, A0); got != 55 {
		t.Errorf("loop sum = %d, want 55", got)
	}
	if got := runToHaltIntReg(t, p, S0); got != 1234 {
		t.Errorf("restored S0 = %d, want 1234", got)
	}
}

func TestBuilderCallRet(t *testing.T) {
	b := NewBuilder("call")
	fn := b.NewLabel()
	b.Li(A0, 20)
	b.Call(fn)
	b.Mov(S1, A0)
	b.Halt()
	b.Bind(fn) // double: a0 = a0*2
	b.Add(A0, A0, A0)
	b.Ret()
	p := b.MustBuild()
	if got := runToHaltIntReg(t, p, S1); got != 40 {
		t.Errorf("call result = %d, want 40", got)
	}
}

func TestBuilderValidatesEmittedCode(t *testing.T) {
	b := NewBuilder("bad")
	b.Add(40, 1, 2) // register out of range
	if _, err := b.Build(); err == nil {
		t.Error("invalid register accepted by Build")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on error")
		}
	}()
	b := NewBuilder("panic")
	l := b.NewLabel()
	b.J(l)
	b.MustBuild()
}

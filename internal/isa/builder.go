package isa

import (
	"fmt"
	"sync"
)

// Program is a complete executable image: code, entry point, initial data
// memory, and the initial stack pointer. Code addresses are instruction
// indices; PC=Entry at reset, SP=StackTop, GP=DataBase. A Program is
// immutable once built and is shared by pointer.
type Program struct {
	Name  string
	Code  []Instr
	Entry uint64
	// Image is the initial data memory, frozen: every core and emulator
	// running the program starts from a copy-on-write Clone of it. It holds
	// a page only where some initial word is non-zero. nil means no data.
	Image    *Memory
	StackTop uint64
	DataBase uint64

	decodeOnce sync.Once
	decoded    []Decoded
}

// NewMemoryImage returns a private Memory holding the program's initial
// data, at the cost of one leaf copy per 2 MB of image.
func (p *Program) NewMemoryImage() *Memory {
	if p.Image == nil {
		return NewMemory()
	}
	return p.Image.Clone()
}

// Label is a forward-referenceable code position handle issued by Builder.
type Label int

// Builder assembles a Program: it emits instructions, resolves labels, and
// lays out an initial data image with a bump allocator. Workload kernels
// are written against this API.
//
// The zero Builder is not ready to use; call NewBuilder.
type Builder struct {
	name    string
	code    []Instr
	labels  []int64 // label -> pc, -1 if unbound
	fixups  []fixup
	data    *Memory
	heap    uint64
	heapTop uint64
	stack   uint64
	err     error
}

type fixup struct {
	pc    int
	label Label
}

// Memory layout constants. The heap grows up from HeapBase; the stack
// grows down from StackBase. Both are far from address zero so that nil
// pointer loads hit distinct pages.
const (
	HeapBase  uint64 = 1 << 16 // 64 KB
	StackBase uint64 = 1 << 30 // 1 GB
)

// NewBuilder returns an empty program builder.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:    name,
		data:    NewMemory(),
		heap:    HeapBase,
		heapTop: HeapBase,
		stack:   StackBase,
	}
}

// PC returns the index the next emitted instruction will occupy.
func (b *Builder) PC() int { return len(b.code) }

// NewLabel allocates an unbound label.
func (b *Builder) NewLabel() Label {
	b.labels = append(b.labels, -1)
	return Label(len(b.labels) - 1)
}

// Bind binds a label to the current PC. A label may be bound once.
func (b *Builder) Bind(l Label) {
	if b.labels[l] != -1 {
		b.fail(fmt.Errorf("label %d bound twice", l))
		return
	}
	b.labels[l] = int64(len(b.code))
}

// Here returns a new label bound at the current PC.
func (b *Builder) Here() Label {
	l := b.NewLabel()
	b.Bind(l)
	return l
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

func (b *Builder) emit(in Instr) {
	b.code = append(b.code, in)
}

func (b *Builder) emitBranch(in Instr, l Label) {
	b.fixups = append(b.fixups, fixup{pc: len(b.code), label: l})
	b.emit(in)
}

// Build resolves all labels and returns the finished program. It returns
// an error if any label is unbound, any branch offset overflows, or any
// emission error occurred.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, fmt.Errorf("builder %q: %w", b.name, b.err)
	}
	for _, f := range b.fixups {
		t := b.labels[f.label]
		if t < 0 {
			return nil, fmt.Errorf("builder %q: unbound label %d at pc %d", b.name, f.label, f.pc)
		}
		off := t - int64(f.pc) - 1
		if off != int64(int32(off)) {
			return nil, fmt.Errorf("builder %q: branch offset %d overflows", b.name, off)
		}
		b.code[f.pc].Imm = int32(off)
	}
	for pc, in := range b.code {
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("builder %q: pc %d: %w", b.name, pc, err)
		}
	}
	return &Program{
		Name:     b.name,
		Code:     append([]Instr(nil), b.code...),
		Image:    b.data.image(),
		StackTop: b.stack,
		DataBase: HeapBase,
	}, nil
}

// MustBuild is Build for static kernels that are validated by tests;
// it panics on error.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// --- data image ---

// Alloc reserves n bytes on the data heap (8-byte aligned) and returns the
// base address.
func (b *Builder) Alloc(n uint64) uint64 {
	addr := b.heap
	b.heap += (n + 7) &^ 7
	b.heapTop = b.heap
	return addr
}

// AllocWords reserves n 8-byte words and returns the base address.
func (b *Builder) AllocWords(n uint64) uint64 { return b.Alloc(n * 8) }

// SetWord sets an initial data word. A zero only overwrites: it never
// touches a page the image does not already hold.
func (b *Builder) SetWord(addr, val uint64) {
	if val != 0 || b.data.ReadWord(addr) != 0 {
		b.data.WriteWord(addr, val)
	}
}

// SetF64 sets an initial float64 data word.
func (b *Builder) SetF64(addr uint64, v float64) { b.SetWord(addr, F2U(v)) }

// Word allocates one initialized word and returns its address.
func (b *Builder) Word(val uint64) uint64 {
	a := b.Alloc(8)
	b.SetWord(a, val)
	return a
}

// HeapSize reports the number of heap bytes allocated so far.
func (b *Builder) HeapSize() uint64 { return b.heapTop - HeapBase }

// --- instruction emission helpers ---

// Nop emits a no-op.
func (b *Builder) Nop() { b.emit(Instr{Op: OpNop}) }

// Halt emits the machine-stop instruction.
func (b *Builder) Halt() { b.emit(Instr{Op: OpHalt}) }

func (b *Builder) rrr(op Op, rd, rs1, rs2 Reg) { b.emit(Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) rri(op Op, rd, rs1 Reg, imm int32) {
	b.emit(Instr{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// Integer register-register operations.
func (b *Builder) Add(rd, rs1, rs2 Reg)  { b.rrr(OpAdd, rd, rs1, rs2) }
func (b *Builder) Sub(rd, rs1, rs2 Reg)  { b.rrr(OpSub, rd, rs1, rs2) }
func (b *Builder) Mul(rd, rs1, rs2 Reg)  { b.rrr(OpMul, rd, rs1, rs2) }
func (b *Builder) Div(rd, rs1, rs2 Reg)  { b.rrr(OpDiv, rd, rs1, rs2) }
func (b *Builder) Rem(rd, rs1, rs2 Reg)  { b.rrr(OpRem, rd, rs1, rs2) }
func (b *Builder) And(rd, rs1, rs2 Reg)  { b.rrr(OpAnd, rd, rs1, rs2) }
func (b *Builder) Or(rd, rs1, rs2 Reg)   { b.rrr(OpOr, rd, rs1, rs2) }
func (b *Builder) Xor(rd, rs1, rs2 Reg)  { b.rrr(OpXor, rd, rs1, rs2) }
func (b *Builder) Sll(rd, rs1, rs2 Reg)  { b.rrr(OpSll, rd, rs1, rs2) }
func (b *Builder) Srl(rd, rs1, rs2 Reg)  { b.rrr(OpSrl, rd, rs1, rs2) }
func (b *Builder) Sra(rd, rs1, rs2 Reg)  { b.rrr(OpSra, rd, rs1, rs2) }
func (b *Builder) Slt(rd, rs1, rs2 Reg)  { b.rrr(OpSlt, rd, rs1, rs2) }
func (b *Builder) Sltu(rd, rs1, rs2 Reg) { b.rrr(OpSltu, rd, rs1, rs2) }

// Integer register-immediate operations.
func (b *Builder) Addi(rd, rs1 Reg, imm int32) { b.rri(OpAddi, rd, rs1, imm) }
func (b *Builder) Andi(rd, rs1 Reg, imm int32) { b.rri(OpAndi, rd, rs1, imm) }
func (b *Builder) Ori(rd, rs1 Reg, imm int32)  { b.rri(OpOri, rd, rs1, imm) }
func (b *Builder) Xori(rd, rs1 Reg, imm int32) { b.rri(OpXori, rd, rs1, imm) }
func (b *Builder) Slli(rd, rs1 Reg, imm int32) { b.rri(OpSlli, rd, rs1, imm) }
func (b *Builder) Srli(rd, rs1 Reg, imm int32) { b.rri(OpSrli, rd, rs1, imm) }
func (b *Builder) Srai(rd, rs1 Reg, imm int32) { b.rri(OpSrai, rd, rs1, imm) }
func (b *Builder) Slti(rd, rs1 Reg, imm int32) { b.rri(OpSlti, rd, rs1, imm) }

// Mov copies rs1 to rd.
func (b *Builder) Mov(rd, rs1 Reg) { b.Addi(rd, rs1, 0) }

// Li loads a 32-bit signed immediate (sign-extended to 64 bits).
func (b *Builder) Li(rd Reg, imm int32) { b.emit(Instr{Op: OpLi, Rd: rd, Imm: imm}) }

// Li64 loads an arbitrary 64-bit constant, expanding to one or two
// instructions.
func (b *Builder) Li64(rd Reg, v uint64) {
	lo := uint32(v)
	hi := uint32(v >> 32)
	sext := uint64(int64(int32(lo)))
	if sext == v {
		b.Li(rd, int32(lo))
		return
	}
	if int32(lo) < 0 {
		// Sign extension would smear ones into the upper half: build the
		// low 32 bits with a zero upper half first.
		b.Li(rd, int32(lo))
		b.Slli(rd, rd, 32)
		b.Srli(rd, rd, 32)
	} else {
		b.Li(rd, int32(lo))
	}
	b.emit(Instr{Op: OpLih, Rd: rd, Rs1: rd, Imm: int32(hi)})
}

// LiAddr loads a data address (always < 2^31 for builder-allocated heap
// addresses, so one instruction; falls back to Li64 otherwise).
func (b *Builder) LiAddr(rd Reg, addr uint64) {
	if addr <= 0x7fffffff {
		b.Li(rd, int32(addr))
		return
	}
	b.Li64(rd, addr)
}

// Memory operations.
func (b *Builder) Ld(rd, base Reg, off int32) { b.emit(Instr{Op: OpLd, Rd: rd, Rs1: base, Imm: off}) }
func (b *Builder) St(val, base Reg, off int32) {
	b.emit(Instr{Op: OpSt, Rs1: base, Rs2: val, Imm: off})
}
func (b *Builder) Fld(fd, base Reg, off int32) { b.emit(Instr{Op: OpFld, Rd: fd, Rs1: base, Imm: off}) }
func (b *Builder) Fst(fval, base Reg, off int32) {
	b.emit(Instr{Op: OpFst, Rs1: base, Rs2: fval, Imm: off})
}

// Control transfers.
func (b *Builder) Beq(rs1, rs2 Reg, l Label) { b.emitBranch(Instr{Op: OpBeq, Rs1: rs1, Rs2: rs2}, l) }
func (b *Builder) Bne(rs1, rs2 Reg, l Label) { b.emitBranch(Instr{Op: OpBne, Rs1: rs1, Rs2: rs2}, l) }
func (b *Builder) Blt(rs1, rs2 Reg, l Label) { b.emitBranch(Instr{Op: OpBlt, Rs1: rs1, Rs2: rs2}, l) }
func (b *Builder) Bge(rs1, rs2 Reg, l Label) { b.emitBranch(Instr{Op: OpBge, Rs1: rs1, Rs2: rs2}, l) }
func (b *Builder) J(l Label)                 { b.emitBranch(Instr{Op: OpJ}, l) }
func (b *Builder) Jal(l Label)               { b.emitBranch(Instr{Op: OpJal, Rd: RA}, l) }
func (b *Builder) Jr(rs1 Reg)                { b.emit(Instr{Op: OpJr, Rs1: rs1}) }

// Ret returns through the return-address register.
func (b *Builder) Ret() { b.Jr(RA) }

// Floating-point operations.
func (b *Builder) Fadd(fd, fs1, fs2 Reg) { b.rrr(OpFadd, fd, fs1, fs2) }
func (b *Builder) Fsub(fd, fs1, fs2 Reg) { b.rrr(OpFsub, fd, fs1, fs2) }
func (b *Builder) Fmul(fd, fs1, fs2 Reg) { b.rrr(OpFmul, fd, fs1, fs2) }
func (b *Builder) Fdiv(fd, fs1, fs2 Reg) { b.rrr(OpFdiv, fd, fs1, fs2) }
func (b *Builder) Fsqrt(fd, fs1 Reg)     { b.rrr(OpFsqrt, fd, fs1, 0) }
func (b *Builder) Fneg(fd, fs1 Reg)      { b.rrr(OpFneg, fd, fs1, 0) }
func (b *Builder) Fabs(fd, fs1 Reg)      { b.rrr(OpFabs, fd, fs1, 0) }
func (b *Builder) Fmov(fd, fs1 Reg)      { b.rrr(OpFmov, fd, fs1, 0) }
func (b *Builder) Fcvt(fd, rs1 Reg)      { b.rrr(OpFcvt, fd, rs1, 0) }
func (b *Builder) Fcvti(rd, fs1 Reg)     { b.rrr(OpFcvti, rd, fs1, 0) }
func (b *Builder) Flt(rd, fs1, fs2 Reg)  { b.rrr(OpFlt, rd, fs1, fs2) }
func (b *Builder) Fle(rd, fs1, fs2 Reg)  { b.rrr(OpFle, rd, fs1, fs2) }
func (b *Builder) Feq(rd, fs1, fs2 Reg)  { b.rrr(OpFeq, rd, fs1, fs2) }

// --- structured control-flow conveniences ---

// Loop emits `body` followed by a decrement-and-branch on counter reg,
// iterating the body `count` times. The counter is clobbered.
func (b *Builder) Loop(counter Reg, count int32, body func()) {
	b.Li(counter, count)
	top := b.Here()
	body()
	b.Addi(counter, counter, -1)
	b.Bne(counter, Zero, top)
}

// Call emits a direct call to a function label.
func (b *Builder) Call(fn Label) { b.Jal(fn) }

// Push saves regs to the stack (SP-relative, adjusting SP).
func (b *Builder) Push(regs ...Reg) {
	n := int32(len(regs))
	b.Addi(SP, SP, -8*n)
	for i, r := range regs {
		b.St(r, SP, int32(i)*8)
	}
}

// Pop restores regs pushed by Push (same order).
func (b *Builder) Pop(regs ...Reg) {
	for i, r := range regs {
		b.Ld(r, SP, int32(i)*8)
	}
	b.Addi(SP, SP, 8*int32(len(regs)))
}

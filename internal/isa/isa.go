// Package isa defines the micro-RISC instruction set used throughout the
// simulator: opcodes, register conventions, instruction encoding, pure
// evaluation semantics, a label-based program builder, and the sparse
// architectural memory image.
//
// The ISA is a 64-bit load/store architecture with 32 integer and 32
// floating-point registers. It stands in for the Alpha ISA the paper's
// SimpleScalar model executed; see DESIGN.md §2 for the substitution
// rationale. Instruction addresses are word indices (PC advances by 1),
// data addresses are byte addresses with 8-byte aligned accesses.
package isa

import "fmt"

// Reg names an architectural register. Integer and floating-point
// registers live in separate 32-entry spaces; which space a Reg refers to
// is determined by the opcode operand slot (see Instr.Src1 etc.).
type Reg uint8

// NumRegs is the number of architectural registers in each space.
const NumRegs = 32

// Integer register conventions. R0 is hardwired to zero.
const (
	Zero Reg = 0 // always reads as zero; writes are discarded
	RA   Reg = 1 // return address (written by Jal)
	SP   Reg = 2 // stack pointer
	GP   Reg = 3 // global/data-segment pointer
	T0   Reg = 4 // temporaries T0..T7
	T1   Reg = 5
	T2   Reg = 6
	T3   Reg = 7
	T4   Reg = 8
	T5   Reg = 9
	T6   Reg = 10
	T7   Reg = 11
	S0   Reg = 12 // saved S0..S7
	S1   Reg = 13
	S2   Reg = 14
	S3   Reg = 15
	S4   Reg = 16
	S5   Reg = 17
	S6   Reg = 18
	S7   Reg = 19
	A0   Reg = 20 // arguments/results A0..A5
	A1   Reg = 21
	A2   Reg = 22
	A3   Reg = 23
	A4   Reg = 24
	A5   Reg = 25
	U0   Reg = 26 // scratch U0..U5
	U1   Reg = 27
	U2   Reg = 28
	U3   Reg = 29
	U4   Reg = 30
	U5   Reg = 31
)

// Floating-point register names F0..F31.
const (
	F0  Reg = 0
	F1  Reg = 1
	F2  Reg = 2
	F3  Reg = 3
	F4  Reg = 4
	F5  Reg = 5
	F6  Reg = 6
	F7  Reg = 7
	F8  Reg = 8
	F9  Reg = 9
	F10 Reg = 10
	F11 Reg = 11
	F12 Reg = 12
	F13 Reg = 13
	F14 Reg = 14
	F15 Reg = 15
	F16 Reg = 16
	F17 Reg = 17
	F18 Reg = 18
	F19 Reg = 19
	F20 Reg = 20
	F21 Reg = 21
	F22 Reg = 22
	F23 Reg = 23
	F24 Reg = 24
	F25 Reg = 25
	F26 Reg = 26
	F27 Reg = 27
	F28 Reg = 28
	F29 Reg = 29
	F30 Reg = 30
	F31 Reg = 31
)

// Op is an opcode.
type Op uint8

// Opcodes. The comment gives the semantics; rd/rs1/rs2/imm refer to the
// Instr fields. Branch and jump offsets are in instructions, relative to
// PC+1. Memory offsets are in bytes.
const (
	OpNop Op = iota // no operation

	// Integer register-register.
	OpAdd  // rd = rs1 + rs2
	OpSub  // rd = rs1 - rs2
	OpMul  // rd = rs1 * rs2
	OpDiv  // rd = rs1 / rs2 (signed; x/0 = 0)
	OpRem  // rd = rs1 % rs2 (signed; x%0 = x)
	OpAnd  // rd = rs1 & rs2
	OpOr   // rd = rs1 | rs2
	OpXor  // rd = rs1 ^ rs2
	OpSll  // rd = rs1 << (rs2 & 63)
	OpSrl  // rd = rs1 >> (rs2 & 63) (logical)
	OpSra  // rd = rs1 >> (rs2 & 63) (arithmetic)
	OpSlt  // rd = 1 if rs1 < rs2 (signed) else 0
	OpSltu // rd = 1 if rs1 < rs2 (unsigned) else 0

	// Integer register-immediate.
	OpAddi // rd = rs1 + imm
	OpAndi // rd = rs1 & imm (imm sign-extended)
	OpOri  // rd = rs1 | imm
	OpXori // rd = rs1 ^ imm
	OpSlli // rd = rs1 << (imm & 63)
	OpSrli // rd = rs1 >> (imm & 63) (logical)
	OpSrai // rd = rs1 >> (imm & 63) (arithmetic)
	OpSlti // rd = 1 if rs1 < imm (signed) else 0
	OpLi   // rd = imm (sign-extended 32-bit immediate)
	OpLih  // rd = rs1 | (imm << 32)  (load immediate high; builds 64-bit constants)

	// Memory. Effective address = rs1 + imm, 8-byte words.
	OpLd  // rd(int) = mem[rs1+imm]
	OpSt  // mem[rs1+imm] = rs2(int)
	OpFld // rd(fp) = mem[rs1+imm]
	OpFst // mem[rs1+imm] = rs2(fp)

	// Control. Targets: PC+1+imm. Jr jumps to the address in rs1.
	OpBeq // branch if rs1 == rs2
	OpBne // branch if rs1 != rs2
	OpBlt // branch if rs1 < rs2 (signed)
	OpBge // branch if rs1 >= rs2 (signed)
	OpJ   // unconditional direct jump
	OpJal // rd = PC+1; jump (direct call)
	OpJr  // jump to rs1 (indirect; used for returns)

	// Floating point (F registers hold IEEE-754 binary64 bit patterns).
	OpFadd  // rd = rs1 + rs2
	OpFsub  // rd = rs1 - rs2
	OpFmul  // rd = rs1 * rs2
	OpFdiv  // rd = rs1 / rs2
	OpFsqrt // rd = sqrt(rs1)
	OpFneg  // rd = -rs1
	OpFabs  // rd = |rs1|
	OpFmov  // rd = rs1
	OpFcvt  // rd(fp) = float64(int64(rs1(int)))
	OpFcvti // rd(int) = int64(rs1(fp)) (truncating; NaN/overflow = 0)
	OpFlt   // rd(int) = 1 if rs1(fp) < rs2(fp) else 0
	OpFle   // rd(int) = 1 if rs1(fp) <= rs2(fp) else 0
	OpFeq   // rd(int) = 1 if rs1(fp) == rs2(fp) else 0

	OpHalt // stop the machine

	numOps // sentinel; must be last
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

// Class partitions opcodes by the functional unit and scheduling behaviour
// they require (paper Table 1 lists per-class units and latencies).
type Class uint8

// Functional-unit classes.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMult // integer multiply/divide (7-cycle unit)
	ClassFPAdd   // FP add/sub/compare/convert/move (4-cycle)
	ClassFPMult  // FP multiply (4-cycle)
	ClassFPDiv   // FP divide (non-pipelined, 12-cycle)
	ClassFPSqrt  // FP square root (non-pipelined, 24-cycle)
	ClassLoad
	ClassStore
	ClassBranch // conditional branches (execute on int ALU)
	ClassJump   // J/Jal/Jr
	ClassHalt
)

// NumClasses is the number of functional-unit classes; Class values are
// dense in [0, NumClasses), so per-class state can live in fixed arrays.
const NumClasses = int(ClassHalt) + 1

var classNames = map[Class]string{
	ClassNop: "nop", ClassIntALU: "ialu", ClassIntMult: "imult",
	ClassFPAdd: "fpadd", ClassFPMult: "fpmult", ClassFPDiv: "fpdiv",
	ClassFPSqrt: "fpsqrt", ClassLoad: "load", ClassStore: "store",
	ClassBranch: "branch", ClassJump: "jump", ClassHalt: "halt",
}

// String returns the lower-case class mnemonic.
func (c Class) String() string { return classNames[c] }

var opClass = [numOps]Class{
	OpNop: ClassNop,
	OpAdd: ClassIntALU, OpSub: ClassIntALU, OpAnd: ClassIntALU,
	OpOr: ClassIntALU, OpXor: ClassIntALU, OpSll: ClassIntALU,
	OpSrl: ClassIntALU, OpSra: ClassIntALU, OpSlt: ClassIntALU,
	OpSltu: ClassIntALU, OpAddi: ClassIntALU, OpAndi: ClassIntALU,
	OpOri: ClassIntALU, OpXori: ClassIntALU, OpSlli: ClassIntALU,
	OpSrli: ClassIntALU, OpSrai: ClassIntALU, OpSlti: ClassIntALU,
	OpLi: ClassIntALU, OpLih: ClassIntALU,
	OpMul: ClassIntMult, OpDiv: ClassIntMult, OpRem: ClassIntMult,
	OpLd: ClassLoad, OpFld: ClassLoad,
	OpSt: ClassStore, OpFst: ClassStore,
	OpBeq: ClassBranch, OpBne: ClassBranch, OpBlt: ClassBranch, OpBge: ClassBranch,
	OpJ: ClassJump, OpJal: ClassJump, OpJr: ClassJump,
	OpFadd: ClassFPAdd, OpFsub: ClassFPAdd, OpFneg: ClassFPAdd,
	OpFabs: ClassFPAdd, OpFmov: ClassFPAdd, OpFcvt: ClassFPAdd,
	OpFcvti: ClassFPAdd, OpFlt: ClassFPAdd, OpFle: ClassFPAdd, OpFeq: ClassFPAdd,
	OpFmul:  ClassFPMult,
	OpFdiv:  ClassFPDiv,
	OpFsqrt: ClassFPSqrt,
	OpHalt:  ClassHalt,
}

// Class reports the functional-unit class of the opcode.
func (op Op) Class() Class {
	if int(op) >= NumOps {
		return ClassNop
	}
	return opClass[op]
}

// IsBranch reports whether the opcode is any control transfer (conditional
// branch or jump).
func (op Op) IsBranch() bool {
	c := op.Class()
	return c == ClassBranch || c == ClassJump
}

// IsCondBranch reports whether the opcode is a conditional branch.
func (op Op) IsCondBranch() bool { return op.Class() == ClassBranch }

// Instr is one decoded instruction. Fields that an opcode does not use are
// zero. Imm holds immediates, memory byte offsets, and branch/jump
// instruction offsets (relative to PC+1).
type Instr struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int32
}

// RegRef identifies one architectural register operand: its number, which
// space it lives in, and whether the operand slot is used at all.
type RegRef struct {
	N     Reg
	FP    bool
	Valid bool
}

func intRef(r Reg) RegRef { return RegRef{N: r, Valid: true} }
func fpRef(r Reg) RegRef  { return RegRef{N: r, FP: true, Valid: true} }

// Dest returns the destination register of the instruction, if any.
// Writes to integer register Zero are architecturally discarded but still
// reported here; renaming layers are expected to check for it.
func (i Instr) Dest() RegRef {
	switch i.Op {
	case OpNop, OpSt, OpFst, OpBeq, OpBne, OpBlt, OpBge, OpJ, OpJr, OpHalt:
		return RegRef{}
	case OpFld, OpFadd, OpFsub, OpFmul, OpFdiv, OpFsqrt, OpFneg, OpFabs, OpFmov, OpFcvt:
		return fpRef(i.Rd)
	default:
		return intRef(i.Rd)
	}
}

// Src1 returns the first source operand, if any.
func (i Instr) Src1() RegRef {
	switch i.Op {
	case OpNop, OpJ, OpJal, OpLi, OpHalt:
		return RegRef{}
	case OpFadd, OpFsub, OpFmul, OpFdiv, OpFsqrt, OpFneg, OpFabs, OpFmov, OpFcvti, OpFlt, OpFle, OpFeq:
		return fpRef(i.Rs1)
	default:
		// Loads/stores use Rs1 as the integer base register; Lih and Fcvt
		// read an integer source; everything else is an integer ALU input.
		return intRef(i.Rs1)
	}
}

// Src2 returns the second source operand, if any. For stores this is the
// value being stored.
func (i Instr) Src2() RegRef {
	switch i.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor,
		OpSll, OpSrl, OpSra, OpSlt, OpSltu,
		OpBeq, OpBne, OpBlt, OpBge, OpSt:
		return intRef(i.Rs2)
	case OpFadd, OpFsub, OpFmul, OpFdiv, OpFlt, OpFle, OpFeq, OpFst:
		return fpRef(i.Rs2)
	default:
		return RegRef{}
	}
}

// Target returns the absolute instruction index this direct control
// transfer jumps to when taken. It must only be called for ops with
// PC-relative targets (conditional branches, J, Jal).
func (i Instr) Target(pc uint64) uint64 {
	return pc + 1 + uint64(int64(i.Imm))
}

func (i Instr) String() string { return Disassemble(i) }

// Validate reports an error if the instruction is malformed (unknown
// opcode or out-of-range register).
func (i Instr) Validate() error {
	if int(i.Op) >= NumOps {
		return fmt.Errorf("isa: unknown opcode %d", i.Op)
	}
	if i.Rd >= NumRegs || i.Rs1 >= NumRegs || i.Rs2 >= NumRegs {
		return fmt.Errorf("isa: register out of range in %v", i)
	}
	return nil
}

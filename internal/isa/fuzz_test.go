package isa

import (
	"math/rand"
	"testing"
)

// randomInstr produces an arbitrary valid instruction.
func randomInstr(r *rand.Rand) Instr {
	return Instr{
		Op:  Op(r.Intn(NumOps)),
		Rd:  Reg(r.Intn(NumRegs)),
		Rs1: Reg(r.Intn(NumRegs)),
		Rs2: Reg(r.Intn(NumRegs)),
		Imm: int32(r.Uint32()),
	}
}

// TestEvalTotal checks that the semantic helpers are total: no panic and
// deterministic output for every opcode over random operand values,
// including pathological FP bit patterns.
func TestEvalTotal(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20000; trial++ {
		in := randomInstr(r)
		rs1, rs2 := r.Uint64(), r.Uint64()
		pc := uint64(r.Intn(1 << 20))
		a := Eval(in, rs1, rs2, pc)
		b := Eval(in, rs1, rs2, pc)
		if a != b {
			t.Fatalf("Eval not deterministic for %v", in)
		}
		_ = BranchTaken(in, rs1, rs2)
		_ = EffAddr(in, rs1)
		_ = Disassemble(in)
	}
}

// TestComparisonConsistency cross-checks the comparison operators against
// the branch conditions they mirror.
func TestComparisonConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		rs1, rs2 := r.Uint64(), r.Uint64()
		slt := Eval(Instr{Op: OpSlt}, rs1, rs2, 0) == 1
		blt := BranchTaken(Instr{Op: OpBlt}, rs1, rs2)
		if slt != blt {
			t.Fatalf("slt=%v blt=%v for %d,%d", slt, blt, rs1, rs2)
		}
		bge := BranchTaken(Instr{Op: OpBge}, rs1, rs2)
		if bge == blt {
			t.Fatalf("bge and blt agree for %d,%d", rs1, rs2)
		}
		beq := BranchTaken(Instr{Op: OpBeq}, rs1, rs2)
		bne := BranchTaken(Instr{Op: OpBne}, rs1, rs2)
		if beq == bne {
			t.Fatalf("beq and bne agree for %d,%d", rs1, rs2)
		}
		if beq != (rs1 == rs2) {
			t.Fatalf("beq wrong for %d,%d", rs1, rs2)
		}
	}
}

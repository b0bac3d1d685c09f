package isa

import "testing"

func TestOpClassCoverage(t *testing.T) {
	// Every opcode except Nop must have a deliberate class assignment; the
	// table is positional, so a forgotten entry shows up as ClassNop.
	for op := OpAdd; int(op) < NumOps; op++ {
		if op.Class() == ClassNop {
			t.Errorf("opcode %v has no class assigned", op)
		}
	}
	if OpNop.Class() != ClassNop {
		t.Errorf("nop class = %v", OpNop.Class())
	}
	if Op(200).Class() != ClassNop {
		t.Errorf("out-of-range opcode should report ClassNop")
	}
}

func TestOpPredicates(t *testing.T) {
	tests := []struct {
		op                 Op
		branch, condBranch bool
	}{
		{OpBeq, true, true},
		{OpBge, true, true},
		{OpJ, true, false},
		{OpJal, true, false},
		{OpJr, true, false},
		{OpLd, false, false},
		{OpFst, false, false},
		{OpAdd, false, false},
		{OpHalt, false, false},
	}
	for _, tc := range tests {
		if got := tc.op.IsBranch(); got != tc.branch {
			t.Errorf("%v.IsBranch() = %v, want %v", tc.op, got, tc.branch)
		}
		if got := tc.op.IsCondBranch(); got != tc.condBranch {
			t.Errorf("%v.IsCondBranch() = %v, want %v", tc.op, got, tc.condBranch)
		}
	}
}

func TestOperandShapes(t *testing.T) {
	tests := []struct {
		name string
		in   Instr
		dest RegRef
		src1 RegRef
		src2 RegRef
	}{
		{"add", Instr{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3},
			intRef(1), intRef(2), intRef(3)},
		{"addi", Instr{Op: OpAddi, Rd: 1, Rs1: 2, Imm: 7},
			intRef(1), intRef(2), RegRef{}},
		{"li", Instr{Op: OpLi, Rd: 4, Imm: 7},
			intRef(4), RegRef{}, RegRef{}},
		{"ld", Instr{Op: OpLd, Rd: 1, Rs1: 2},
			intRef(1), intRef(2), RegRef{}},
		{"st", Instr{Op: OpSt, Rs1: 2, Rs2: 3},
			RegRef{}, intRef(2), intRef(3)},
		{"fld", Instr{Op: OpFld, Rd: 1, Rs1: 2},
			fpRef(1), intRef(2), RegRef{}},
		{"fst", Instr{Op: OpFst, Rs1: 2, Rs2: 3},
			RegRef{}, intRef(2), fpRef(3)},
		{"beq", Instr{Op: OpBeq, Rs1: 2, Rs2: 3},
			RegRef{}, intRef(2), intRef(3)},
		{"j", Instr{Op: OpJ}, RegRef{}, RegRef{}, RegRef{}},
		{"jal", Instr{Op: OpJal, Rd: 1}, intRef(1), RegRef{}, RegRef{}},
		{"jr", Instr{Op: OpJr, Rs1: 1}, RegRef{}, intRef(1), RegRef{}},
		{"fadd", Instr{Op: OpFadd, Rd: 1, Rs1: 2, Rs2: 3},
			fpRef(1), fpRef(2), fpRef(3)},
		{"fcvt", Instr{Op: OpFcvt, Rd: 1, Rs1: 2},
			fpRef(1), intRef(2), RegRef{}},
		{"fcvti", Instr{Op: OpFcvti, Rd: 1, Rs1: 2},
			intRef(1), fpRef(2), RegRef{}},
		{"flt", Instr{Op: OpFlt, Rd: 1, Rs1: 2, Rs2: 3},
			intRef(1), fpRef(2), fpRef(3)},
		{"halt", Instr{Op: OpHalt}, RegRef{}, RegRef{}, RegRef{}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.Dest(); got != tc.dest {
				t.Errorf("Dest() = %+v, want %+v", got, tc.dest)
			}
			if got := tc.in.Src1(); got != tc.src1 {
				t.Errorf("Src1() = %+v, want %+v", got, tc.src1)
			}
			if got := tc.in.Src2(); got != tc.src2 {
				t.Errorf("Src2() = %+v, want %+v", got, tc.src2)
			}
		})
	}
}

func TestTarget(t *testing.T) {
	in := Instr{Op: OpBeq, Imm: -3}
	if got := in.Target(10); got != 8 {
		t.Errorf("Target(10) with imm -3 = %d, want 8", got)
	}
	in = Instr{Op: OpJ, Imm: 5}
	if got := in.Target(0); got != 6 {
		t.Errorf("Target(0) with imm 5 = %d, want 6", got)
	}
}

func TestValidate(t *testing.T) {
	if err := (Instr{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}).Validate(); err != nil {
		t.Errorf("valid instruction rejected: %v", err)
	}
	if err := (Instr{Op: Op(250)}).Validate(); err == nil {
		t.Error("unknown opcode accepted")
	}
	if err := (Instr{Op: OpAdd, Rd: 32}).Validate(); err == nil {
		t.Error("out-of-range register accepted")
	}
}

func TestClassString(t *testing.T) {
	if ClassFPDiv.String() != "fpdiv" || ClassLoad.String() != "load" {
		t.Errorf("class names wrong: %v %v", ClassFPDiv, ClassLoad)
	}
}

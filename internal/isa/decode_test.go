package isa

import "testing"

// TestDecodedSlots pins the slot mapping the fast interpreter relies on,
// for every opcode over the registers where it matters (Zero, an ordinary
// one, the last): a source slot is 0 exactly when the operand is absent
// or integer Zero, a destination slot is SlotSink exactly then, FP
// registers sit SlotFP above integer ones, no source ever names SlotSink
// and no destination ever names slot 0.
func TestDecodedSlots(t *testing.T) {
	want := func(r RegRef, absent uint8) uint8 {
		switch {
		case !r.Valid || !r.FP && r.N == Zero:
			return absent
		case r.FP:
			return SlotFP + uint8(r.N)
		default:
			return uint8(r.N)
		}
	}
	var code []Instr
	for op := 0; op < NumOps; op++ {
		for _, r := range []Reg{Zero, T3, NumRegs - 1} {
			code = append(code, Instr{Op: Op(op), Rd: r, Rs1: r, Rs2: r, Imm: -3})
		}
	}
	p := &Program{Name: "slots", Code: code}
	for pc, d := range p.Decoded() {
		in := code[pc]
		if d.S1 != want(in.Src1(), 0) || d.S2 != want(in.Src2(), 0) || d.D != want(in.Dest(), SlotSink) {
			t.Errorf("%v: slots %d,%d -> %d, want %d,%d -> %d", in,
				d.S1, d.S2, d.D, want(in.Src1(), 0), want(in.Src2(), 0), want(in.Dest(), SlotSink))
		}
		if d.S1 >= SlotSink || d.S2 >= SlotSink || d.D == 0 || d.D > SlotSink {
			t.Errorf("%v: slots %d,%d -> %d out of range", in, d.S1, d.S2, d.D)
		}
		if d.Imm != uint64(int64(in.Imm)) {
			t.Errorf("%v: imm %#x, want sign-extended %#x", in, d.Imm, uint64(int64(in.Imm)))
		}
	}
}

package isa

// Register-slot layout of the flat decode: an interpreter holds the whole
// architectural register state in one array of SlotSink+1 words and indexes
// it with Decoded.S1/S2/D, with no Valid/FP/Zero tests per operand.
// Integer register N is slot N, FP register N is slot SlotFP+N. Slot 0 is
// integer register Zero: nothing ever writes it, so it also serves every
// absent source. SlotSink takes every write that must vanish — a Zero or
// absent destination — and nothing ever reads it.
const (
	SlotFP   = NumRegs
	SlotSink = 2 * NumRegs
)

// Decoded is the predecoded form of one static instruction: everything an
// interpreter would re-derive per dynamic execution (functional-unit
// class, operand register references and their resolved slots, the
// sign-extended immediate, the direct branch target) resolved once per
// static instruction instead.
type Decoded struct {
	Op     Op
	Class  Class
	S1, S2 uint8 // source slots; an absent source reads slot 0
	D      uint8 // destination slot; SlotSink when absent or Zero
	Src1   RegRef
	Src2   RegRef
	Dest   RegRef
	Imm    uint64 // Instr.Imm sign-extended
	Target uint64 // absolute taken target for Branch/J/Jal (pc+1+imm)
}

// Decoded returns the program's decode table, building it on first use.
// The table is immutable, shared by every machine running the program,
// and dies with the Program: nothing else refers to it.
func (p *Program) Decoded() []Decoded {
	p.decodeOnce.Do(func() {
		t := make([]Decoded, len(p.Code))
		for pc, in := range p.Code {
			d := &t[pc]
			d.Op = in.Op
			d.Class = in.Op.Class()
			d.Src1 = in.Src1()
			d.Src2 = in.Src2()
			d.Dest = in.Dest()
			d.S1 = regSlot(d.Src1)
			d.S2 = regSlot(d.Src2)
			d.D = SlotSink
			if s := regSlot(d.Dest); s != 0 {
				d.D = s
			}
			d.Imm = uint64(int64(in.Imm))
			if d.Class == ClassBranch || d.Class == ClassJump && in.Op != OpJr {
				d.Target = in.Target(uint64(pc))
			}
		}
		p.decoded = t
	})
	return p.decoded
}

// regSlot resolves an operand to its register slot: 0 for an absent one
// and for integer Zero, which is right for a source as it stands and
// which Decoded turns into SlotSink for a destination.
func regSlot(r RegRef) uint8 {
	switch {
	case !r.Valid:
		return 0
	case r.FP:
		return SlotFP + uint8(r.N)
	default:
		return uint8(r.N)
	}
}

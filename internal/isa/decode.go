package isa

// Decoded is the predecoded form of one static instruction: everything an
// interpreter would re-derive per dynamic execution (functional-unit
// class, operand register references, the direct branch target) resolved
// once per static instruction instead.
type Decoded struct {
	Op     Op
	Class  Class
	Src1   RegRef
	Src2   RegRef
	Dest   RegRef
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
			if d.Class == ClassBranch || d.Class == ClassJump && in.Op != OpJr {
				d.Target = in.Target(uint64(pc))
			}
		}
		p.decoded = t
	})
	return p.decoded
}

package trace

import (
	"errors"
	"fmt"

	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/workload"
)

// Record captures a workload into a Trace by running it on the
// functional emulator: the full static program image is copied in, and
// up to maxInstr dynamic instruction records (PC, class, effective
// address, branch outcome, indirect target) are captured by inspecting
// operands just before each Step. maxInstr == 0 records the dynamic
// stream until Halt (budgeted at 1<<32 as a runaway guard). The
// recorded stream hash is the emulator's committed-PC hash over the
// recorded prefix, which Verify (validate.go) and the replay oracle can
// re-derive.
func Record(src workload.Source, scale workload.Scale, maxInstr uint64) (*Trace, error) {
	prog, err := src.Build(scale)
	if err != nil {
		return nil, fmt.Errorf("trace: building %s: %w", src.Ref(), err)
	}
	budget := maxInstr
	if budget == 0 {
		budget = 1 << 32
	}
	m := emu.New(prog)
	recs := make([]Rec, 0, min(budget, 1<<20))
	for uint64(len(recs)) < budget && !m.Halted {
		pc := m.PC
		if pc >= uint64(len(prog.Code)) {
			return nil, fmt.Errorf("trace: recording %s: pc %d outside code", src.Ref(), pc)
		}
		in := prog.Code[pc]
		r := Rec{PC: pc, Class: in.Op.Class()}
		switch r.Class {
		case isa.ClassLoad, isa.ClassStore:
			r.HasMem = true
			r.Addr = isa.EffAddr(in, m.ReadReg(in.Src1()))
		case isa.ClassBranch:
			r.Taken = isa.BranchTaken(in, m.ReadReg(in.Src1()), m.ReadReg(in.Src2()))
		case isa.ClassJump:
			r.Taken = true
			if in.Op == isa.OpJr {
				r.HasTgt = true
				r.Target = m.ReadReg(in.Src1())
			}
		}
		if err := m.Step(); err != nil {
			return nil, fmt.Errorf("trace: recording %s: %w", src.Ref(), err)
		}
		recs = append(recs, r)
	}
	if maxInstr == 0 && !m.Halted {
		return nil, fmt.Errorf("trace: recording %s: no Halt within %d instructions", src.Ref(), budget)
	}

	t := &Trace{
		Name:       src.Name(),
		Suite:      src.Suite().String(),
		Source:     src.Ref(),
		Entry:      prog.Entry,
		StackTop:   prog.StackTop,
		DataBase:   prog.DataBase,
		Code:       prog.Code,
		Data:       prog.Image,
		Instrs:     m.InstrCount,
		StreamHash: m.StreamHash,
		Halted:     m.Halted,
		Records:    recs,
	}
	return t, nil
}

// RecordRef resolves a workload ref and records it. Recording a trace
// of a trace is rejected: it would re-wrap identical content under a
// new file while suggesting something new was captured.
func RecordRef(ref string, scale workload.Scale, maxInstr uint64) (*Trace, error) {
	src, err := workload.ParseRef(ref)
	if err != nil {
		return nil, err
	}
	if _, ok := src.(*fileSource); ok {
		return nil, errors.New("trace: refusing to re-record a trace file; copy it instead")
	}
	return Record(src, scale, maxInstr)
}

func min(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

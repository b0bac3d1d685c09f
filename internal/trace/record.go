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
// address, branch outcome, indirect target) are built from the
// emulator's profile events. maxInstr == 0 records the dynamic stream
// until Halt (budgeted at 1<<32 as a runaway guard). The recorded stream
// hash is the emulator's committed-PC hash over the recorded prefix,
// which Verify (validate.go) and the replay oracle can re-derive.
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
	rec := recorder{code: prog.Code, recs: make([]Rec, 0, min(budget, 1<<20))}
	if _, err := m.RunProfile(budget, &rec); err != nil && !errors.Is(err, emu.ErrNotHalted) {
		return nil, fmt.Errorf("trace: recording %s: %w", src.Ref(), err)
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
		Records:    rec.recs,
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

// recorder is the emu.ProfileSink that builds the record stream: Instr
// opens a record, and the Mem or Branch event of the same instruction,
// if any, fills it in.
type recorder struct {
	code []isa.Instr
	recs []Rec
}

func (r *recorder) Instr(pc uint64, class isa.Class) {
	r.recs = append(r.recs, Rec{PC: pc, Class: class})
}

func (r *recorder) Mem(_, addr uint64, _ bool) {
	cur := &r.recs[len(r.recs)-1]
	cur.HasMem, cur.Addr = true, addr
}

func (r *recorder) Branch(b emu.WarmBranch) {
	cur := &r.recs[len(r.recs)-1]
	cur.Taken = b.Taken
	if r.code[b.PC].Op == isa.OpJr {
		cur.HasTgt, cur.Target = true, b.Target
	}
}

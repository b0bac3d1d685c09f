package trace

import (
	"errors"
	"fmt"

	"largewindow/internal/emu"
	"largewindow/internal/workload"
)

// Record captures a workload into a Trace: the full static program image
// is copied in, and the program runs on the functional emulator for up
// to maxInstr instructions to fix the recording metadata (instruction
// count, committed-PC stream hash, halt state) that Verify (validate.go)
// re-derives. maxInstr == 0 runs until Halt (budgeted at 1<<32 as a
// runaway guard). Nothing per instruction is kept, so recording costs
// the program's size, not the run's length.
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
	if _, err := m.Run(budget); err != nil && !errors.Is(err, emu.ErrNotHalted) {
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

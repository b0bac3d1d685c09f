package trace

import (
	"errors"
	"fmt"

	"largewindow/internal/emu"
	"largewindow/internal/isa"
)

// ErrInvalid marks a structurally well-formed container whose content
// fails validation (bad control-flow targets, record stream that does
// not match the program, stream-hash mismatch).
var ErrInvalid = errors.New("trace: invalid trace content")

// Validate runs the structural checks beyond what decoding enforces:
// every instruction well-formed, every direct control-transfer target
// inside the code segment, and record metadata consistent with the header
// (data words are aligned by construction: the image is word-granular). It does
// not execute the program; see Verify for the semantic check.
func (t *Trace) Validate() error {
	if len(t.Code) == 0 {
		return fmt.Errorf("%w: empty code", ErrInvalid)
	}
	if t.Entry >= uint64(len(t.Code)) {
		return fmt.Errorf("%w: entry %d outside code", ErrInvalid, t.Entry)
	}
	n := uint64(len(t.Code))
	for pc, in := range t.Code {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("%w: pc %d: %v", ErrInvalid, pc, err)
		}
		switch in.Op.Class() {
		case isa.ClassBranch, isa.ClassJump:
			if in.Op == isa.OpJr {
				continue // runtime target
			}
			if tgt := in.Target(uint64(pc)); tgt >= n {
				return fmt.Errorf("%w: pc %d: target %d outside code (%d instrs)", ErrInvalid, pc, tgt, n)
			}
		}
	}
	if uint64(len(t.Records)) > t.Instrs {
		return fmt.Errorf("%w: %d records but only %d recorded instructions", ErrInvalid, len(t.Records), t.Instrs)
	}
	for i, r := range t.Records {
		if r.PC >= n {
			return fmt.Errorf("%w: record %d: pc %d outside code", ErrInvalid, i, r.PC)
		}
		cls := t.Code[r.PC].Op.Class()
		if r.Class != cls {
			return fmt.Errorf("%w: record %d: class %v but code says %v", ErrInvalid, i, r.Class, cls)
		}
	}
	return nil
}

// Verify is the strict end-to-end check: after Validate, it re-executes
// the reconstructed program on the functional emulator for the recorded
// instruction count and confirms the dynamic record stream (PCs,
// effective addresses, branch outcomes, indirect targets), the
// committed-PC stream hash, and the halt state all reproduce. A trace
// that passes Verify replays bit-identically by construction: the
// detailed core consumes exactly the program image Verify just
// re-executed.
func (t *Trace) Verify() error {
	if err := t.Validate(); err != nil {
		return err
	}
	prog := t.Program()
	m := emu.New(prog)
	for i, want := range t.Records {
		if m.Halted {
			return fmt.Errorf("%w: program halted before record %d", ErrInvalid, i)
		}
		pc := m.PC
		if pc != want.PC {
			return fmt.Errorf("%w: record %d: pc %d, re-execution at %d", ErrInvalid, i, want.PC, pc)
		}
		in := prog.Code[pc]
		switch want.Class {
		case isa.ClassLoad, isa.ClassStore:
			if got := isa.EffAddr(in, m.ReadReg(in.Src1())); !want.HasMem || got != want.Addr {
				return fmt.Errorf("%w: record %d: addr %#x, re-execution %#x", ErrInvalid, i, want.Addr, got)
			}
		case isa.ClassBranch:
			if got := isa.BranchTaken(in, m.ReadReg(in.Src1()), m.ReadReg(in.Src2())); got != want.Taken {
				return fmt.Errorf("%w: record %d: taken %v, re-execution %v", ErrInvalid, i, want.Taken, got)
			}
		case isa.ClassJump:
			if in.Op == isa.OpJr {
				if got := m.ReadReg(in.Src1()); !want.HasTgt || got != want.Target {
					return fmt.Errorf("%w: record %d: target %d, re-execution %d", ErrInvalid, i, want.Target, got)
				}
			}
		}
		if err := m.Step(); err != nil {
			return fmt.Errorf("%w: re-executing record %d: %v", ErrInvalid, i, err)
		}
	}
	if uint64(len(t.Records)) == t.Instrs {
		if m.StreamHash != t.StreamHash {
			return fmt.Errorf("%w: stream hash %#x, re-execution %#x", ErrInvalid, t.StreamHash, m.StreamHash)
		}
		if m.Halted != t.Halted {
			return fmt.Errorf("%w: halted %v, re-execution %v", ErrInvalid, t.Halted, m.Halted)
		}
	}
	return nil
}

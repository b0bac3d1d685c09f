package trace

import (
	"errors"
	"fmt"

	"largewindow/internal/emu"
	"largewindow/internal/isa"
)

// ErrInvalid marks a structurally well-formed container whose content
// fails validation (bad control-flow targets, a re-execution that does
// not reproduce the recorded run).
var ErrInvalid = errors.New("trace: invalid trace content")

// Validate runs the structural checks beyond what decoding enforces:
// every instruction well-formed and every direct control-transfer target
// inside the code segment (data words are aligned by construction: the
// image is word-granular). It does not execute the program; see Verify
// for the semantic check.
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
	return nil
}

// Verify is the strict end-to-end check: after Validate, it re-executes
// the reconstructed program on the functional emulator for the recorded
// instruction count and confirms the committed-PC stream hash and the
// halt state reproduce. A trace that passes Verify replays
// bit-identically by construction: the detailed core consumes exactly
// the program image Verify just re-executed.
func (t *Trace) Verify() error {
	if err := t.Validate(); err != nil {
		return err
	}
	m := emu.New(t.Program())
	if _, err := m.Run(t.Instrs); err != nil && !errors.Is(err, emu.ErrNotHalted) {
		return fmt.Errorf("%w: re-executing: %v", ErrInvalid, err)
	}
	if m.InstrCount != t.Instrs {
		return fmt.Errorf("%w: program halted after %d of %d recorded instructions", ErrInvalid, m.InstrCount, t.Instrs)
	}
	if m.StreamHash != t.StreamHash {
		return fmt.Errorf("%w: stream hash %#x, re-execution %#x", ErrInvalid, t.StreamHash, m.StreamHash)
	}
	if m.Halted != t.Halted {
		return fmt.Errorf("%w: halted %v, re-execution %v", ErrInvalid, t.Halted, m.Halted)
	}
	return nil
}

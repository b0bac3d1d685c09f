package emu

import (
	"errors"
	"fmt"

	"largewindow/internal/isa"
)

// This file keeps the checkpoint build as it stood when every skipped
// instruction fed the warm log: one fresh machine, one run of the whole
// skip into the rings. It is the differential oracle of
// TestBuildCheckpointMatchesFullLog; the identifier carries an oracle
// prefix, the code is otherwise as it was.

// oracleBuildCheckpoint runs a fresh machine for skip instructions on the warm-
// capturing fast path and checkpoints the result. A program that halts
// before the skip target yields a halted checkpoint (the measured window
// is then empty); only genuine execution faults return an error.
func oracleBuildCheckpoint(prog *isa.Program, skip uint64) (*Checkpoint, error) {
	m := New(prog)
	w := NewWarmLog(DefaultWarmMem, DefaultWarmFetch, DefaultWarmBranch)
	if skip > 0 {
		if _, err := m.run(skip, w, nil); err != nil && !errors.Is(err, ErrNotHalted) {
			return nil, fmt.Errorf("emu: fast-forward of %s: %w", prog.Name, err)
		}
	}
	cp := m.Checkpoint()
	cp.Warm = w
	return cp, nil
}

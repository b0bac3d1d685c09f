package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"largewindow/internal/emu"
	"largewindow/internal/workload"
)

// haltCount runs the functional emulator to completion and returns the
// total dynamic instruction count (used to pick safe skip/measure splits).
func haltCount(t *testing.T, spec *workload.Spec) uint64 {
	t.Helper()
	m := emu.New(spec.Build(workload.ScaleTest))
	n, err := m.Run(1 << 30)
	if err != nil {
		t.Fatalf("%s: functional run: %v", spec.Name, err)
	}
	return n
}

// TestRestoreSkipZeroBitIdentical: restoring a skip-0 checkpoint (entry
// state, empty warm rings) must leave the timing run bit-identical to a
// plain run — the golden tables cannot move when fast-forward is off.
func TestRestoreSkipZeroBitIdentical(t *testing.T) {
	specs := workload.All()
	for _, cfg := range []Config{DefaultConfig(), WIBConfigSized(512, 8)} {
		cfg := cfg
		spec := specs[0]
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			prog := spec.Build(workload.ScaleTest)
			plain, err := New(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := plain.Run(0, 200_000_000)
			if err != nil {
				t.Fatal(err)
			}

			cp, err := emu.BuildCheckpoint(spec.Build(workload.ScaleTest), 0)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := New(cfg, spec.Build(workload.ScaleTest))
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.RestoreCheckpoint(cp); err != nil {
				t.Fatal(err)
			}
			got, err := restored.Run(0, 200_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("skip-0 restore diverges\n got %+v\nwant %+v", got, ref)
			}
		})
	}
}

// TestSkipMeasureWindow: after a functional skip, the measured region's
// Committed covers only measured instructions, Skipped records the
// fast-forwarded count, and the final stream hash continues the
// emulator's — the timing core picks up exactly where the emulator
// stopped.
func TestSkipMeasureWindow(t *testing.T) {
	specs := workload.All()
	for _, cfg := range []Config{DefaultConfig(), WIBConfigSized(512, 8)} {
		cfg := cfg
		cfg.LockstepOracle = true // commit-time oracle must survive restore
		spec := specs[1]
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			total := haltCount(t, &spec)
			skip := total / 3
			if skip == 0 {
				t.Fatalf("%s too short (%d instrs) for a skip window", spec.Name, total)
			}

			cp, err := emu.BuildCheckpoint(spec.Build(workload.ScaleTest), skip)
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(cfg, spec.Build(workload.ScaleTest))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.RestoreCheckpoint(cp); err != nil {
				t.Fatal(err)
			}
			st, err := p.Run(0, 200_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if st.Skipped != skip {
				t.Errorf("Skipped = %d, want %d", st.Skipped, skip)
			}
			if st.Committed != total-skip {
				t.Errorf("Committed = %d, want %d (measured region only)", st.Committed, total-skip)
			}

			// Stream-hash continuity: the timing run-to-halt must end on the
			// same hash as an uninterrupted functional run.
			m := emu.New(spec.Build(workload.ScaleTest))
			if _, err := m.Run(1 << 30); err != nil {
				t.Fatal(err)
			}
			if st.StreamHash != m.StreamHash {
				t.Errorf("stream hash %#x does not continue the emulator's %#x", st.StreamHash, m.StreamHash)
			}
		})
	}
}

// TestSkipMeasureBudget: an instruction budget bounds the measured region,
// not skip+measure combined.
func TestSkipMeasureBudget(t *testing.T) {
	specs := workload.All()
	spec := specs[2]
	total := haltCount(t, &spec)
	skip, measure := total/2, total/8
	if measure == 0 {
		t.Fatalf("%s too short (%d instrs)", spec.Name, total)
	}
	cp, err := emu.BuildCheckpoint(spec.Build(workload.ScaleTest), skip)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(DefaultConfig(), spec.Build(workload.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(measure, 200_000_000)
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	// Commit retires a full width per cycle before the budget check, so
	// the run may overshoot by at most one commit group.
	if st.Committed < measure || st.Committed >= measure+16 {
		t.Errorf("Committed = %d, want ~budget %d (measured region only)", st.Committed, measure)
	}
	if st.Skipped != skip {
		t.Errorf("Skipped = %d, want %d", st.Skipped, skip)
	}
}

// TestSkipFastForwardEquivalence: the idle-cycle fast-forward optimization
// must stay bit-identical when the run starts from a checkpoint.
func TestSkipFastForwardEquivalence(t *testing.T) {
	specs := workload.All()
	spec := specs[0]
	total := haltCount(t, &spec)
	skip := total / 4

	run := func(noFF bool) *Stats {
		cfg := DefaultConfig()
		cfg.Mem.MemLatency = 1000 // make fast-forward worth engaging
		cfg.NoFastForward = noFF
		cp, err := emu.BuildCheckpoint(spec.Build(workload.ScaleTest), skip)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(cfg, spec.Build(workload.ScaleTest))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.RestoreCheckpoint(cp); err != nil {
			t.Fatal(err)
		}
		st, err := p.Run(0, 200_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	ref, got := run(true), run(false)
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("fast-forward diverges under skip\n got %+v\nwant %+v", got, ref)
	}
}

// TestSkipWatchdogStillArms: a checkpointed run keeps the forward-progress
// watchdog semantics — a measured region that commits normally never trips
// it.
func TestSkipWatchdogStillArms(t *testing.T) {
	specs := workload.All()
	spec := specs[0]
	total := haltCount(t, &spec)
	cfg := DefaultConfig()
	cfg.DeadlockCycles = 10_000
	cp, err := emu.BuildCheckpoint(spec.Build(workload.ScaleTest), total/3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(cfg, spec.Build(workload.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(0, 200_000_000); err != nil {
		t.Fatalf("watchdog tripped on a healthy checkpointed run: %v", err)
	}
}

// TestHaltedCheckpointEmptyWindow: skipping past the end of the program
// yields an empty measured region, not an error.
func TestHaltedCheckpointEmptyWindow(t *testing.T) {
	specs := workload.All()
	spec := specs[0]
	cp, err := emu.BuildCheckpoint(spec.Build(workload.ScaleTest), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Halted {
		t.Fatal("expected halted checkpoint")
	}
	p, err := New(DefaultConfig(), spec.Build(workload.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(0, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 0 {
		t.Errorf("empty window committed %d instructions", st.Committed)
	}
	if st.Skipped != cp.InstrCount {
		t.Errorf("Skipped = %d, want %d", st.Skipped, cp.InstrCount)
	}
}

// TestRestoreGuards: restoring after the processor ran, or onto the wrong
// program, must fail loudly.
func TestRestoreCheckpointGuards(t *testing.T) {
	specs := workload.All()
	progA := specs[0].Build(workload.ScaleTest)
	progB := specs[1].Build(workload.ScaleTest)

	cp, err := emu.BuildCheckpoint(specs[0].Build(workload.ScaleTest), 100)
	if err != nil {
		t.Fatal(err)
	}

	p, err := New(DefaultConfig(), progA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(1000, 1_000_000); err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	if err := p.RestoreCheckpoint(cp); err == nil {
		t.Error("RestoreCheckpoint accepted a processor that already ran")
	}

	q, err := New(DefaultConfig(), progB)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.RestoreCheckpoint(cp); err == nil {
		t.Error("RestoreCheckpoint accepted a checkpoint for a different program")
	}
}

// TestCheckpointOwnership holds RestoreCheckpoint to the ownership rule of
// emu.Checkpoint.Image. A handed-over checkpoint (emu.Machine.Handover) has
// one holder: RunWindow takes its memory image as the core's memory, or the
// lockstep oracle's, with no copy, and leaves cp.Mem nil, so a second
// restore of it returns an error. A shared (frozen) checkpoint is cloned
// by every restore and left intact. All of them run the same window.
func TestCheckpointOwnership(t *testing.T) {
	spec, ok := workload.Get("em3d")
	if !ok {
		t.Fatal("no kernel em3d")
	}
	prog := spec.Build(workload.ScaleTest)
	m := emu.New(prog)
	if _, err := m.Run(haltCount(t, &spec) / 3); !errors.Is(err, emu.ErrNotHalted) {
		t.Fatalf("functional run to a third: %v", err)
	}
	oracle := DefaultConfig()
	oracle.LockstepOracle = true
	ctx := context.Background()
	for _, cfg := range []Config{DefaultConfig(), WIBDefault(), oracle} {
		run := func(cp *emu.Checkpoint) WindowResult {
			t.Helper()
			res, err := RunWindow(ctx, cfg, prog, Window{Start: cp, Warmup: 500, Measure: 5000})
			if err != nil || !res.Measured {
				t.Fatalf("%s: window measured %v: %v", cfg.Name, res.Measured, err)
			}
			return res
		}
		owned := m.Handover()
		img := owned.Mem
		res := run(owned)
		taken := res.Proc.memory
		if cfg.LockstepOracle {
			if taken == img {
				t.Errorf("%s: the core and its oracle share one image", cfg.Name)
			}
			taken = res.Proc.oracle.Mem
		}
		if taken != img {
			t.Errorf("%s: the window copied the image handed to it", cfg.Name)
		}
		if owned.Mem != nil {
			t.Errorf("%s: a handed-over checkpoint keeps its image after its restore", cfg.Name)
		}
		if _, err := RunWindow(ctx, cfg, prog, Window{Start: owned, Measure: 5000}); err == nil {
			t.Errorf("%s: a handed-over checkpoint restored twice", cfg.Name)
		}
		want := res.Stats

		shared := m.Checkpoint()
		img, sum := shared.Mem, shared.Mem.Checksum()
		for i := 0; i < 2; i++ {
			res := run(shared)
			if res.Proc.memory == img || (cfg.LockstepOracle && res.Proc.oracle.Mem == img) {
				t.Errorf("%s: restore %d of a shared checkpoint took its image", cfg.Name, i)
			}
			if shared.Mem != img || !img.Frozen() || img.Checksum() != sum {
				t.Errorf("%s: restore %d of a shared checkpoint changed its image", cfg.Name, i)
			}
			if !reflect.DeepEqual(res.Stats, want) {
				t.Errorf("%s: restore %d of a shared checkpoint measured\n%+v\nthe handed-over one\n%+v", cfg.Name, i, res.Stats, want)
			}
		}
	}
}

package main

import (
	"errors"

	"largewindow"
	"largewindow/internal/bpred"
	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/mem"
)

// emuSpeed runs a fresh machine over prog for up to maxInstr instructions
// through run, under a span, and records Minstrs/s.
func emuSpeed(lc *layerCtx, metric, call string, prog *largewindow.Program, maxInstr uint64,
	run func(m *emu.Machine, n uint64) (uint64, error)) error {
	m := emu.New(prog)
	var n uint64
	var err error
	secs := lc.tr.call(root(0), "emu", call, prog.Name, func() { n, err = run(m, maxInstr) })
	if err != nil && !errors.Is(err, emu.ErrNotHalted) {
		return err
	}
	lc.m.set(metric, ratio(float64(n)/1e6, secs), int(n))
	return nil
}

// emuRun times Machine.Run, the ProgramLength path.
func emuRun(prog *largewindow.Program, maxInstr uint64) probe {
	return func(lc *layerCtx) error {
		return emuSpeed(lc, "emu.run_minstrs_per_s", "Machine.Run", prog, maxInstr,
			func(m *emu.Machine, n uint64) (uint64, error) { return m.Run(n) })
	}
}

// emuRunSink times RunSink into a fresh hierarchy and predictor: the
// functional warming between a sampled cell's windows.
func emuRunSink(prog *largewindow.Program, maxInstr uint64) probe {
	return func(lc *layerCtx) error {
		cfg := largewindow.BaseConfig()
		sink := warmSink{mem.NewHierarchy(cfg.Mem), bpred.New(cfg.Bpred)}
		return emuSpeed(lc, "emu.runsink_minstrs_per_s", "Machine.RunSink", prog, maxInstr,
			func(m *emu.Machine, n uint64) (uint64, error) { return m.RunSink(n, sink) })
	}
}

// nopProfile is a ProfileSink that drops everything: RunProfile's own
// cost, without a collector behind it.
type nopProfile struct{}

func (nopProfile) Instr(uint64, isa.Class)  {}
func (nopProfile) Mem(uint64, uint64, bool) {}
func (nopProfile) Branch(emu.WarmBranch)    {}

// emuRunProfile times RunProfile, the interval model's event source.
func emuRunProfile(prog *largewindow.Program, maxInstr uint64) probe {
	return func(lc *layerCtx) error {
		return emuSpeed(lc, "emu.runprofile_minstrs_per_s", "Machine.RunProfile", prog, maxInstr,
			func(m *emu.Machine, n uint64) (uint64, error) { return m.RunProfile(n, nopProfile{}) })
	}
}

// emuRestore times emu.Restore of a checkpoint: a deep copy of the
// memory image.
func emuRestore(prog *largewindow.Program, cp *emu.Checkpoint) probe {
	return func(lc *layerCtx) error {
		const n = 5
		var err error
		id := lc.tr.begin(root(0), "emu", "Restore", prog.Name)
		for i := 0; i < n && err == nil; i++ {
			_, err = emu.Restore(prog, cp)
		}
		lc.m.set("emu.restore_ms", lc.tr.end(id)*1e3/n, n)
		return err
	}
}

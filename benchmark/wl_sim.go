package main

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"largewindow"
	"largewindow/internal/emu"
)

// simHash is the identity of a cell's simulated outcome beyond its
// counts: the committed-stream hash, or a sampled run's IPC bits.
func simHash(res *largewindow.Result) uint64 {
	if res.Sampling != nil {
		return math.Float64bits(res.IPC())
	}
	return res.Stats.StreamHash
}

// ffState is the checkpoint one emu-ff kernel's window steps start from;
// the kernel's fast-forward step of the same pass fills it.
type ffState struct {
	src  largewindow.Workload
	prog *largewindow.Program
	cp   *largewindow.Checkpoint
}

// setupEmuFF builds, per kernel, one fast-forward step and one window
// step per configuration starting from that pass's checkpoint. The skip
// counts once, in the fast-forward step's ops.
func setupEmuFF(e *env) (*instance, error) {
	srcs, err := parseRefs(ffKernels, e.sz.ffScale)
	if err != nil {
		return nil, err
	}
	inst := &instance{close: func() {}}
	states := map[string]*ffState{}
	for _, src := range srcs {
		st := &ffState{src: src}
		name := src.Name()
		states[name] = st
		inst.steps = append(inst.steps, step{name: "ff:" + name, run: func() (stepOut, error) {
			prog, err := largewindow.WorkloadProgram(st.src, e.sz.ffScale)
			if err != nil {
				return stepOut{}, err
			}
			cp, err := largewindow.FastForward(prog, e.sz.ffSkip)
			if err != nil {
				return stepOut{}, err
			}
			st.prog, st.cp = prog, cp
			return stepOut{ops: cp.InstrCount, cells: []cellResult{{
				Cell: "ff:" + name, Skipped: cp.InstrCount, Hash: cp.StreamHash}}}, nil
		}})
		for _, cfg := range bothConfigs() {
			label := name + "/" + cfg.Name
			inst.steps = append(inst.steps, step{name: label, run: func() (stepOut, error) {
				if st.cp == nil {
					return stepOut{}, errors.New("no checkpoint: the fast-forward step failed")
				}
				res, err := simulate(cfg, st.prog,
					largewindow.WithCheckpoint(st.cp), largewindow.WithMeasure(e.sz.ffMeasure))
				if err != nil {
					return stepOut{}, err
				}
				c := resultOf(label, res)
				return stepOut{ops: c.Committed, cells: []cellResult{c}}, nil
			}})
		}
	}
	// Golden model: continue the emulator from the shared checkpoint for
	// exactly the committed count instead of re-emulating the skip.
	inst.verify = func(first []stepOut) (int, []string) {
		var bad []string
		checks := 0
		for _, c := range allCells(first) {
			// "<kernel>/<config>"; the fast-forward cells have no config part.
			name, _, window := strings.Cut(c.Cell, "/")
			if !window {
				continue
			}
			checks++
			st := states[name]
			m, err := emu.Restore(st.prog, st.cp)
			if err == nil {
				_, err = m.Run(c.Committed)
			}
			if err != nil && !errors.Is(err, emu.ErrNotHalted) {
				bad = append(bad, fmt.Sprintf("%s: golden model: %v", c.Cell, err))
			} else if m.StreamHash != c.Hash {
				bad = append(bad, fmt.Sprintf("%s: StreamHash %016x, emulator %016x", c.Cell, c.Hash, m.StreamHash))
			}
		}
		return checks, bad
	}
	return inst, nil
}

// sampledKernels are two kernels of each suite, all among the 18 the
// sampling plan was tuned on. The whole suite takes 11 s a pass, mostly
// em3d and treeadd on the WIB core; these six keep a pass near 3 s.
var sampledKernels = []string{"gzip", "vortex", "art", "mgrid", "mst", "perimeter"}

// sampledRefs is the sampled suite: tuned-on kernels, then the seed's
// four held-out synth programs.
func sampledRefs(e *env) []string {
	return append(append([]string(nil), sampledKernels...), synthRefs(e.seed, e.sz.synthN)...)
}

// setupSampled builds, per program, one sizing step (ProgramLength, once
// per program as campaign sessions memoize it) and one sampled step per
// configuration under the plan resolved against that length.
func setupSampled(e *env) (*instance, error) {
	plan, err := largewindow.ParseSamplingPlan(e.sz.sampleSpec)
	if err != nil {
		return nil, err
	}
	srcs, err := parseRefs(sampledRefs(e), e.sz.scale)
	if err != nil {
		return nil, err
	}
	inst := &instance{close: func() {}}
	for _, src := range srcs {
		name := src.Name()
		var total uint64
		inst.steps = append(inst.steps, step{name: "size:" + name, run: func() (stepOut, error) {
			prog, err := largewindow.WorkloadProgram(src, e.sz.scale)
			if err != nil {
				return stepOut{}, err
			}
			total, err = largewindow.ProgramLength(prog)
			return stepOut{cells: []cellResult{{Cell: "size:" + name, Committed: total}}}, err
		}})
		for _, cfg := range bothConfigs() {
			label := name + "/" + cfg.Name
			inst.steps = append(inst.steps, step{name: label, run: func() (stepOut, error) {
				if total == 0 {
					return stepOut{}, errors.New("no program length: the sizing step failed")
				}
				c := simCell{label: label, src: src, scale: e.sz.scale, cfg: cfg,
					opts: []largewindow.Option{largewindow.WithSampling(plan.Resolve(total))}}
				return c.step().run()
			}})
		}
	}
	// A sampled run has no single committed stream to hash; its checks
	// are the cross-pass and traced/untraced determinism of the IPC.
	inst.verify = func([]stepOut) (int, []string) { return 0, nil }
	return inst, nil
}

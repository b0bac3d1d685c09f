package main

import (
	"context"
	"errors"
	"fmt"

	"largewindow"
	"largewindow/internal/emu"
)

// sizes are a workload's frozen size constants. The full set is what
// BENCHMARK.json's numbers are measured at; the quick set is test scale
// and only the self-test uses it.
type sizes struct {
	quick        bool              // test scale: no recorded baseline applies
	scale        largewindow.Scale // kernels of fig4-*, sampled-suite, explore-grid
	baseInstr    uint64            // fig4-base budget per kernel
	wibInstr     uint64            // fig4-wib budget per kernel
	ffScale      largewindow.Scale // emu-ff kernels
	ffSkip       uint64            // emu-ff functional skip per kernel
	ffMeasure    uint64            // emu-ff detailed window per config
	synthN       uint64            // dynamic length of each synth program
	sampleSpec   string            // sampled-suite plan
	exploreInstr uint64            // explore-grid budget per cell
	fleetBatch   int               // fleet-run cells per pass
	probeEvents  int               // captured events replayed through mem/bpred
	probeInstr   uint64            // budget of single-kernel core/emu probes
}

var fullSizes = sizes{
	scale:        largewindow.ScaleRun,
	baseInstr:    250_000,
	wibInstr:     50_000,
	ffScale:      largewindow.ScaleFull,
	ffSkip:       40_000_000,
	ffMeasure:    10_000,
	synthN:       2_000_000,
	sampleSpec:   largewindow.DefaultSamplingSpec,
	exploreInstr: 30_000,
	fleetBatch:   4000,
	probeEvents:  2_000_000,
	probeInstr:   200_000,
}

var quickSizes = sizes{
	quick:        true,
	scale:        largewindow.ScaleTest,
	baseInstr:    4_000,
	wibInstr:     2_000,
	ffScale:      largewindow.ScaleTest,
	ffSkip:       20_000,
	ffMeasure:    2_000,
	synthN:       30_000,
	sampleSpec:   "n=4,len=500,warm=100,seed=7,random",
	exploreInstr: 3_000,
	fleetBatch:   40,
	probeEvents:  20_000,
	probeInstr:   5_000,
}

// ffKernels are emu-ff's programs: two integer and two floating-point
// kernels with large full-scale images.
var ffKernels = []string{"bzip2", "gcc", "mgrid", "swim"}

// exploreKernels span the three memory personalities: pointer chasing
// (mst, em3d, perimeter), latency tolerant (art, swim), cache resident
// (gzip).
var exploreKernels = []string{"mst", "em3d", "art", "gzip", "swim", "perimeter"}

var workloads = []workloadDef{
	{
		name:    "fig4-base",
		why:     "18 kernels on the conventional 32-IQ/128 core: pipeline, mem and bpred. WIB code is inert, so a WIB-only change must show no change here. op = simulated instruction.",
		setup:   func(e *env) (*instance, error) { return setupFig4(e, largewindow.BaseConfig(), e.sz.baseInstr) },
		layered: func(e *env, lc *layerCtx) error { return layeredFig4(e, lc, largewindow.BaseConfig(), e.sz.baseInstr) },
	},
	{
		name:    "fig4-wib",
		why:     "Same 18 kernels on the WIB/2048 core with the two-level register file: park/reinsert/bank-select and bit-vector columns dominate. op = simulated instruction.",
		setup:   func(e *env) (*instance, error) { return setupFig4(e, largewindow.WIBConfig(), e.sz.wibInstr) },
		layered: func(e *env, lc *layerCtx) error { return layeredFig4(e, lc, largewindow.WIBConfig(), e.sz.wibInstr) },
	},
	{
		name:    "emu-ff",
		why:     "Functional tier: a long fast-forward per full-scale kernel, then short Base and WIB windows from the shared checkpoint. Emulator and restore dominate, not the core. op = simulated instruction.",
		setup:   setupEmuFF,
		layered: layeredEmuFF,
	},
	{
		name:    "sampled-suite",
		why:     "SMARTS sampling of 6 kernels and 4 seeded held-out synth programs on Base and WIB: Warm*/RunSink paths and many short windows, so construction and restore costs show. op = simulated instruction.",
		seeded:  true,
		setup:   setupSampled,
		layered: layeredSampled,
	},
	{
		name:    "explore-grid",
		why:     "Model and campaign tiers: a model-pruned sweep of the default grid over 6 kernels and 2 seeded synth programs through a caching session on 2 workers. op = grid cell answered.",
		seeded:  true,
		setup:   setupExplore,
		layered: layeredExplore,
	},
	{
		name:    "fleet-run",
		why:     "Fleet tier alone: 2 closed-loop clients drive distinct no-op cells through an in-process coordinator and 2 workers over HTTP. No simulation runs. op = cell completed.",
		seeded:  true,
		setup:   setupFleet,
		layered: layeredFleet,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// bothConfigs are the paper's base machine and its principal WIB machine.
func bothConfigs() []largewindow.Config {
	return []largewindow.Config{largewindow.BaseConfig(), largewindow.WIBConfig()}
}

// simCell is one facade simulation: a workload source, a configuration
// and the options that bound it.
type simCell struct {
	label string
	src   largewindow.Workload
	scale largewindow.Scale
	cfg   largewindow.Config
	opts  []largewindow.Option
}

// run simulates the cell through the v2 facade on the calling goroutine.
func (c simCell) run() (*largewindow.Result, error) {
	opts := append([]largewindow.Option{largewindow.WithWorkload(c.src, c.scale)}, c.opts...)
	return simulate(c.cfg, nil, opts...)
}

// simulate is the facade call every simulation workload enters through.
func simulate(cfg largewindow.Config, prog *largewindow.Program, opts ...largewindow.Option) (*largewindow.Result, error) {
	return largewindow.SimulateContext(context.Background(), cfg, prog, opts...)
}

// step wraps the cell as one timed step; sampled cells report their IPC
// bits where plain cells report the committed-stream hash.
func (c simCell) step() step {
	return step{name: c.label, run: func() (stepOut, error) {
		res, err := c.run()
		if err != nil {
			return stepOut{}, err
		}
		return stepOut{ops: res.Stats.Skipped + res.Stats.Committed, cells: []cellResult{resultOf(c.label, res)}}, nil
	}}
}

func resultOf(label string, res *largewindow.Result) cellResult {
	return cellResult{
		Cell:      label,
		Skipped:   res.Stats.Skipped,
		Committed: res.Stats.Committed,
		Cycles:    res.Stats.Cycles,
		Hash:      simHash(res),
	}
}

// parseRefs resolves workload refs and builds each once, so a bad input
// fails in set-up and not in the timed region.
func parseRefs(refs []string, scale largewindow.Scale) ([]largewindow.Workload, error) {
	srcs := make([]largewindow.Workload, len(refs))
	for i, ref := range refs {
		src, err := largewindow.ParseWorkloadRef(ref)
		if err != nil {
			return nil, err
		}
		if _, err := src.Build(scale); err != nil {
			return nil, fmt.Errorf("building %s: %w", ref, err)
		}
		srcs[i] = src
	}
	return srcs, nil
}

// goldenHash emulates exactly n instructions of the cell's program from
// reset and returns the emulator's stream hash: what a plain detailed
// run that skipped and committed n instructions in total must report.
func goldenHash(src largewindow.Workload, scale largewindow.Scale, n uint64) (uint64, error) {
	prog, err := src.Build(scale)
	if err != nil {
		return 0, err
	}
	m := emu.New(prog)
	if _, err := m.Run(n); err != nil && !errors.Is(err, emu.ErrNotHalted) {
		return 0, err
	}
	return m.StreamHash, nil
}

// setupFig4 builds the 18-kernel serial sweep of one configuration; caches
// start empty in every cell.
func setupFig4(e *env, cfg largewindow.Config, budget uint64) (*instance, error) {
	srcs, err := parseRefs(largewindow.BenchmarkNames(), e.sz.scale)
	if err != nil {
		return nil, err
	}
	inst := &instance{close: func() {}}
	byName := map[string]largewindow.Workload{}
	for _, src := range srcs {
		byName[src.Name()] = src
		c := simCell{label: src.Name(), src: src, scale: e.sz.scale, cfg: cfg,
			opts: []largewindow.Option{largewindow.WithMaxInstr(budget)}}
		inst.steps = append(inst.steps, c.step())
	}
	inst.verify = func(first []stepOut) (int, []string) {
		var bad []string
		cells := allCells(first)
		for _, c := range cells {
			want, err := goldenHash(byName[c.Cell], e.sz.scale, c.Skipped+c.Committed)
			if err != nil {
				bad = append(bad, fmt.Sprintf("%s: golden model: %v", c.Cell, err))
			} else if want != c.Hash {
				bad = append(bad, fmt.Sprintf("%s: StreamHash %016x, emulator %016x", c.Cell, c.Hash, want))
			}
		}
		return len(cells), bad
	}
	return inst, nil
}

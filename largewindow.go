// Package largewindow is a cycle-level reproduction of Lebeck, Koppanalil,
// Li, Patwardhan & Rotenberg, "A Large, Fast Instruction Window for
// Tolerating Cache Misses" (ISCA 2002): an 8-wide out-of-order processor
// model in the style of the Alpha 21264 whose small issue queues are
// augmented with a Waiting Instruction Buffer (WIB) that parks the
// dependence chains of load cache misses until the miss resolves.
//
// The package is a thin facade over the implementation packages:
//
//	internal/isa       instruction set, assembler/builder, memory image
//	internal/emu       architectural (functional) emulator
//	internal/mem       caches, TLB, DRAM timing
//	internal/bpred     branch prediction (combined bimodal + two-level)
//	internal/regfile   single- and two-level register file timing
//	internal/core      the out-of-order pipeline and the WIB
//	internal/workload  the 18 benchmark kernels of the evaluation
//	internal/flight    single-flight memo (resolve a content ID at most once)
//	internal/campaign  campaign engine (FIFO worker pool) with a persistent result cache
//	internal/harness   the paper's experiments (Figures 1,4-7; Table 2; §4)
//
// Quick start:
//
//	ctx := context.Background()
//	art, _ := largewindow.ParseWorkloadRef("art")
//	prog, _ := art.Build(largewindow.ScaleTest)
//	base, _ := largewindow.SimulateContext(ctx, largewindow.BaseConfig(), prog)
//	wib, _ := largewindow.SimulateContext(ctx, largewindow.WIBConfig(), prog)
//	fmt.Printf("speedup %.2fx\n", wib.IPC()/base.IPC())
//
// Budgeted runs, wall-clock bounds, and telemetry attach as options:
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	res, err := largewindow.SimulateContext(ctx, cfg, prog,
//	    largewindow.WithMaxInstr(300_000),
//	    largewindow.WithTelemetry(samplesFile, 0))
package largewindow

import (
	"context"
	"errors"
	"fmt"
	"io"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/emu"
	"largewindow/internal/harness"
	"largewindow/internal/isa"
	"largewindow/internal/model"
	"largewindow/internal/sample"
	_ "largewindow/internal/trace" // register trace: and synth: workload schemes
	"largewindow/internal/workload"
)

// Re-exported configuration and statistics types.
type (
	// Config describes a processor configuration (see core.Config).
	Config = core.Config
	// Stats holds the counters a simulation produces.
	Stats = core.Stats
	// Program is an executable kernel image.
	Program = isa.Program
	// Builder assembles new programs.
	Builder = isa.Builder
	// Scale selects benchmark working-set sizing.
	Scale = workload.Scale
)

// Benchmark scales.
const (
	ScaleTest = workload.ScaleTest
	ScaleRun  = workload.ScaleRun
	ScaleFull = workload.ScaleFull
)

// BaseConfig returns the paper's base machine: 32-entry issue queues and
// a 128-entry active list with single-cycle registers (Table 1).
func BaseConfig() Config { return core.DefaultConfig() }

// WIBConfig returns the paper's principal WIB machine: base issue queues
// plus a 2K-entry banked WIB and a two-level register file.
func WIBConfig() Config { return core.WIBDefault() }

// WIBConfigSized returns a WIB machine with a given capacity and
// bit-vector (outstanding load miss) limit; 0 means unlimited.
func WIBConfigSized(entries, bitVectors int) Config {
	return core.WIBConfigSized(entries, bitVectors)
}

// ScaledConfig returns a conventional machine with the given issue-queue
// and active-list sizes (the paper's limit-study configurations).
func ScaledConfig(issueQueue, activeList int) Config {
	return core.ScaledConfig(issueQueue, activeList)
}

// NewBuilder starts a new program.
func NewBuilder(name string) *Builder { return isa.NewBuilder(name) }

// Workload is a source of programs to simulate: a registry benchmark, a
// recorded trace file, or a parameterized synthetic kernel. Every source
// has a resolvable Ref ("bench:gcc", "trace:runs/gcc.wtr",
// "synth:mlp=4,miss=0.1") and a stable content-derived Identity that
// campaign cell IDs and checkpoint keys are addressed by.
type Workload = workload.Source

// ParseWorkloadRef resolves a workload reference to its source. Bare
// names are benchmark lookups ("gcc" ≡ "bench:gcc"); "trace:<path>"
// opens a recorded .wtr trace (lazily — a missing file surfaces on first
// build); "synth:<spec>" parses a synthetic kernel spec such as
// "synth:mlp=4,miss=0.1,entropy=0.8,ws=1m". Unknown schemes and unknown
// benchmark names return an error.
func ParseWorkloadRef(ref string) (Workload, error) {
	src, err := workload.ParseRef(ref)
	if err != nil {
		return nil, fmt.Errorf("largewindow: %w", err)
	}
	return src, nil
}

// WorkloadProgram builds the program behind a workload source at the
// given scale (traces ignore scale — their content is fixed).
func WorkloadProgram(w Workload, scale Scale) (*Program, error) {
	return w.Build(scale)
}

// BenchmarkNames lists the evaluation kernels in the paper's table order.
func BenchmarkNames() []string { return workload.Names() }

// Result is the outcome of one simulation. It serializes to
// schema-versioned JSON (see MarshalJSON) so encoded results can be
// stored and decoded across releases; the tags are that stable shape.
type Result struct {
	Stats Stats `json:"stats"`
	// Derived memory-system ratios.
	DL1MissRatio     float64 `json:"dl1_miss_ratio"`
	L2LocalMissRatio float64 `json:"l2_local_miss_ratio"`
	TLBMissRatio     float64 `json:"tlb_miss_ratio"`
	// Halted reports whether the program ran to completion (as opposed to
	// exhausting the instruction budget, which is the normal way the
	// evaluation samples long kernels).
	Halted bool `json:"halted"`

	// Sampled-run statistics, populated only by WithSampling runs.
	// Sampling echoes the executed plan (auto-period plans appear resolved
	// against the program's measured length). The point estimate (also
	// returned by IPC) is the inverse of the mean per-interval CPI — the
	// SMARTS estimator, unbiased for the program's cycles-per-instruction
	// where a mean of window IPCs would overweight fast windows; IPCCI95 is
	// the Student-t 95% confidence half-width around it (delta-method
	// propagated from CPI space).
	Sampling     *SamplingPlan `json:"sampling,omitempty"`
	Intervals    int           `json:"intervals,omitempty"`
	IPCStdDev    float64       `json:"ipc_stddev,omitempty"`
	IPCCI95      float64       `json:"ipc_ci95,omitempty"`
	IntervalIPCs []float64     `json:"interval_ipcs,omitempty"`
}

// resultOf is the facade's one view over the executor's outcome: a
// detailed window and a sampled run both arrive as a sample.Outcome.
func resultOf(out *sample.Outcome) *Result {
	r := &Result{
		Stats:            out.Stats,
		DL1MissRatio:     out.DL1Miss,
		L2LocalMissRatio: out.L2Local,
		TLBMissRatio:     out.TLBMiss,
		Halted:           out.Halted,
		Intervals:        len(out.IntervalIPCs),
		IPCStdDev:        out.IPCStdDev,
		IPCCI95:          out.IPCCI95,
		IntervalIPCs:     out.IntervalIPCs,
	}
	if out.Plan.Intervals > 0 { // a sampled run; a single window has no plan
		plan := out.Plan
		r.Sampling = &plan
	}
	return r
}

// IPC returns committed instructions per cycle: the measured-region IPC
// for detailed runs, the sampled point estimate for WithSampling runs.
func (r *Result) IPC() float64 { return r.Stats.IPC }

// Checkpoint is a full restorable functional state: registers, the
// complete memory image, PC/instruction count, and a warm log of the
// recent access stream. Build one with FastForward (or emu.BuildCheckpoint)
// and start timing simulations from it with WithCheckpoint.
type Checkpoint = emu.Checkpoint

// FastForward executes the first skip instructions of prog on the
// functional emulator's fast interpreter and returns a restorable
// checkpoint carrying the architectural state plus cache/TLB/predictor
// warm state. Only the last 4M skipped instructions feed the warm state,
// whose bounded rings keep just the newest accesses; the rest run bare.
// A program that halts within the skip window yields a halted
// checkpoint (its measured window is empty). Checkpoints depend only on
// (program, skip) — never on a processor configuration — so one
// fast-forward pass serves every configuration measuring the same window.
func FastForward(prog *Program, skip uint64) (*Checkpoint, error) {
	return emu.BuildCheckpoint(prog, skip)
}

// SamplingPlan describes a SMARTS-style statistical sampling regime (see
// internal/sample): N measured intervals of Length instructions, one per
// Period, each optionally preceded by a detailed Warmup, with the
// functional emulator carrying the program (and warming caches, TLBs, and
// the branch predictor) between them. ParseSamplingPlan decodes the CLI
// spec form ("n=50,period=200000,len=2000,warm=2000").
type SamplingPlan = sample.Plan

// ParseSamplingPlan decodes a sampling-plan spec of comma-separated
// key=value fields: n, period, len (required), warm, seed, and the bare
// flag random.
func ParseSamplingPlan(spec string) (SamplingPlan, error) { return sample.Parse(spec) }

// DefaultSamplingSpec is the calibrated default sampling plan: the spec
// the repo benchmark's sampled-suite workload runs, whose layered run
// reports it against full detail as sample.speedup_vs_full and
// sample.ipc_err_pct (calibrated at ~4.9x wall-clock and under 2% mean
// absolute IPC error over the 18-kernel x {base, WIB} suite).
// Window length is the load-bearing choice — the WIB machine's
// fill/drain limit cycle on streaming FP kernels spans thousands of
// instructions, and windows much shorter than it measure whichever
// phase the detailed warmup happens to land on (DESIGN.md §12.5).
const DefaultSamplingSpec = "n=26,len=8000,warm=1000,seed=7,random"

// ProgramLength measures prog's dynamic instruction count with one
// functional emulator pass — what auto-period sampling plans resolve
// against. Campaign sessions memoize it per benchmark; callers running
// several configurations over one program should do the same and pass
// the resolved plan (SamplingPlan.Resolve) to WithSampling.
func ProgramLength(prog *Program) (uint64, error) { return sample.ProgramLength(prog) }

// simOptions collects the option-configurable knobs of SimulateContext.
type simOptions struct {
	maxInstr       uint64
	maxCycles      int64
	telemetryW     io.Writer
	sampleInterval int64
	skipInstr      uint64
	checkpoint     *Checkpoint
	sampling       *SamplingPlan
	workload       Workload
	workloadScale  Scale
}

// Option configures a SimulateContext run.
type Option func(*simOptions)

// WithMaxInstr bounds the run to n committed instructions (0, the
// default, runs to completion). Budget-bounded runs return a Result with
// Halted == false.
func WithMaxInstr(n uint64) Option {
	return func(o *simOptions) { o.maxInstr = n }
}

// WithMaxCycles bounds the run to n simulated cycles (0, the default,
// means unbounded).
func WithMaxCycles(n int64) Option {
	return func(o *simOptions) { o.maxCycles = n }
}

// WithSkip fast-forwards the first n instructions functionally before the
// timing simulation begins (SimpleScalar's -fastfwd; gem5's CPU switch).
// The measured region's statistics exclude the skipped instructions,
// which Stats.Skipped records. n = 0 (the default) is exactly today's
// full detailed run. A checkpoint fixes the skip, so SimulateContext
// refuses WithSkip together with WithCheckpoint.
func WithSkip(n uint64) Option {
	return func(o *simOptions) { o.skipInstr = n }
}

// WithMeasure bounds the measured region to n committed instructions — an
// alias of WithMaxInstr named for the skip/measure window idiom:
//
//	SimulateContext(ctx, cfg, prog, WithSkip(1_000_000), WithMeasure(100_000))
func WithMeasure(n uint64) Option {
	return func(o *simOptions) { o.maxInstr = n }
}

// WithCheckpoint starts the timing simulation from a prebuilt functional
// checkpoint (see FastForward), skipping the fast-forward pass entirely.
// The checkpoint must come from the same program.
func WithCheckpoint(cp *Checkpoint) Option {
	return func(o *simOptions) { o.checkpoint = cp }
}

// WithSampling runs the simulation as a SMARTS-style sampled estimate
// under the given plan instead of one contiguous detailed region: many
// short detailed windows spread across the program, functional warming
// between them, and a confidence interval over the window IPCs in the
// Result. Sampling composes with WithMaxCycles (a per-window cycle bound);
// SimulateContext refuses it together with WithMaxInstr, WithMeasure,
// WithSkip, WithCheckpoint or WithTelemetry — the plan defines the
// simulated region, and the detailed core is recreated per interval.
func WithSampling(plan SamplingPlan) Option {
	return func(o *simOptions) { o.sampling = &plan }
}

// WithWorkload builds the program to simulate from a workload source
// (see ParseWorkloadRef) at the given scale, in place of the prog
// argument — pass nil for prog:
//
//	w, _ := largewindow.ParseWorkloadRef("synth:mlp=4,miss=0.1")
//	res, _ := largewindow.SimulateContext(ctx, cfg, nil,
//	    largewindow.WithWorkload(w, largewindow.ScaleTest))
//
// Supplying both a non-nil prog and WithWorkload is an error.
func WithWorkload(w Workload, scale Scale) Option {
	return func(o *simOptions) {
		o.workload = w
		o.workloadScale = scale
	}
}

// WithTelemetry attaches a cycle-sampled telemetry collector to the run
// and streams schema-versioned JSONL samples to w. sampleInterval is the
// sampling period in cycles (0 = the collector's default).
func WithTelemetry(w io.Writer, sampleInterval int64) Option {
	return func(o *simOptions) {
		o.telemetryW = w
		o.sampleInterval = sampleInterval
	}
}

// ignored is an input an entry point would ignore, and whether it was given.
type ignored struct {
	given bool
	what  string
}

// refuse returns an error naming the first input given that entry would
// ignore: a run that silently differs from the one asked for is worse
// than no run.
func refuse(entry string, opts ...ignored) error {
	for _, o := range opts {
		if o.given {
			return fmt.Errorf("largewindow: %s refuses %s", entry, o.what)
		}
	}
	return nil
}

// SimulateContext runs prog on the given configuration until it halts,
// exhausts an option-configured budget, or ctx is done — cancellation
// and deadlines abort the simulation promptly with ctx's error. An option
// it would ignore is an error, returned before anything runs.
func SimulateContext(ctx context.Context, cfg Config, prog *Program, opts ...Option) (*Result, error) {
	var o simOptions
	for _, opt := range opts {
		opt(&o)
	}
	if err := refuse("SimulateContext",
		ignored{o.workload != nil && prog != nil, "a prog with WithWorkload; pass nil prog"},
		ignored{o.checkpoint != nil && o.skipInstr > 0, "WithSkip with WithCheckpoint, which fixes the skip"},
		ignored{o.sampling != nil && (o.maxInstr > 0 || o.skipInstr > 0 || o.checkpoint != nil || o.telemetryW != nil),
			"WithMaxInstr, WithMeasure, WithSkip, WithCheckpoint and WithTelemetry under WithSampling, whose plan defines the simulated windows"},
	); err != nil {
		return nil, err
	}
	if o.workload != nil {
		var err error
		if prog, err = o.workload.Build(o.workloadScale); err != nil {
			return nil, fmt.Errorf("largewindow: building workload %s: %w", o.workload.Ref(), err)
		}
	}
	if prog == nil {
		return nil, errors.New("largewindow: nil program (pass a *Program or WithWorkload)")
	}
	bench, scale := prog.Name, ""
	if o.workload != nil {
		bench, scale = o.workload.Name(), o.workloadScale.String()
	}
	ctx = core.WithLabels(ctx, bench, scale)
	if o.sampling != nil {
		out, err := sample.Run(ctx, cfg, prog, *o.sampling, o.maxCycles, nil)
		if err != nil {
			return nil, err
		}
		return resultOf(out), nil
	}
	cp := o.checkpoint
	if cp == nil && o.skipInstr > 0 {
		var err error
		if cp, err = emu.BuildCheckpoint(prog, o.skipInstr); err != nil {
			return nil, err
		}
	}
	w, err := core.RunWindow(ctx, cfg, prog, core.Window{
		Start:          cp,
		Telemetry:      o.telemetryW,
		SampleInterval: o.sampleInterval,
		Measure:        o.maxInstr,
		MaxCycles:      o.maxCycles,
	})
	if err != nil {
		return nil, err
	}
	if w.TelemetryErr != nil {
		return nil, fmt.Errorf("largewindow: telemetry: %w", w.TelemetryErr)
	}
	return resultOf(sample.OneWindow(w)), nil
}

// ExploreReport is the outcome of an ExploreContext sweep: per-cell
// predictions (with measured results and live error where simulated),
// per-config suite summaries, and the Pareto frontier over suite IPC,
// bit-vector budget, and cache capacity.
type ExploreReport = model.Report

// ExploreOptions tunes an ExploreContext sweep; its zero value runs
// every simulated cell to completion at ScaleTest under the calibrated
// pruning policy.
type ExploreOptions struct {
	// MaxInstr bounds the profiling pass and each simulated cell,
	// MaxCycles each cell; 0 is unbounded.
	MaxInstr  uint64
	MaxCycles int64
	// Scale sizes the named kernels; the zero value is ScaleTest.
	Scale Scale
	// TopK, AuditFrac and Seed are the pruning policy, zero values
	// defaulted as internal/model's Pruning documents: the configs the
	// model predicts best and simulated in full, the audited fraction of
	// the pruned cells, and the audit slice's selection seed.
	TopK      int
	AuditFrac float64
	Seed      uint64
}

// ExploreContext runs a model-pruned design-space exploration of cfgs
// over the named workloads (any ParseWorkloadRef refs) as an in-process
// harness session's Explore: one functional profiling pass per
// (workload, cache family) feeds an interval model that predicts every
// cell; the detailed core simulates only the calibration anchors, the
// predicted-best configs and an audit slice on a pool of
// runtime.GOMAXPROCS(0) workers. No cell is retried. A done ctx profiles
// nothing; cancelling ctx stops the cells in flight, and ExploreContext
// returns once every cell has stopped. Report points name a registry
// kernel by its bare name and any other workload by its canonical ref.
func ExploreContext(ctx context.Context, cfgs []Config, workloads []string, opt ExploreOptions) (*ExploreReport, error) {
	if len(workloads) == 0 { // a session reads no workloads as every kernel
		return nil, errors.New("largewindow: explore needs workloads")
	}
	// A session reads zero budgets as its defaults, the facade as unbounded.
	const unbounded = 1 << 62
	if opt.MaxInstr == 0 {
		opt.MaxInstr = unbounded
	}
	if opt.MaxCycles == 0 {
		opt.MaxCycles = unbounded
	}
	s := harness.NewSession(harness.Options{
		Context:    ctx,
		MaxInstr:   opt.MaxInstr,
		MaxCycles:  opt.MaxCycles,
		Scale:      opt.Scale,
		Benchmarks: workloads,
		Retry:      campaign.RetryPolicy{MaxAttempts: 1},
	})
	return s.Explore(cfgs, harness.ExploreOptions{TopK: opt.TopK, AuditFrac: opt.AuditFrac, Seed: opt.Seed})
}

// Emulate runs prog on the architectural emulator (no timing) and returns
// the final state — the reference a SimulateContext run of the same
// program must match.
func Emulate(prog *Program, maxInstr uint64) (emu.State, error) {
	m := emu.New(prog)
	if _, err := m.Run(maxInstr); err != nil {
		return emu.State{}, err
	}
	return m.Snapshot(), nil
}

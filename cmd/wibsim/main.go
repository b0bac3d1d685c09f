// Command wibsim runs one benchmark kernel on one processor
// configuration and prints detailed statistics — the basic user-facing
// simulator front end.
//
// Usage:
//
//	wibsim -bench art [-scale test|run|full] [-config base|wib|iq2k]
//	       [-instr N] [-cycles N] [-list]
//	       [-skip N] [-measure N] [-sample n=50,period=200000,len=2000,warm=2000]
//	       [-wib-entries N] [-bitvectors N] [-policy banked|program-order|rr-load|oldest-load]
//	       [-mem-latency N] [-dump] [-pipetrace N] [-deadline 30s] [-crash-dump crash.json]
//	       [-watchdog N] [-lockstep] [-no-fast-forward]
//	       [-telemetry] [-telemetry-out telemetry.jsonl] [-sample-interval N]
//	       [-trace-out trace.json] [-kanata pipeline.kanata] [-pprof cpu.prof]
//	wibsim -bench art [-scale test|run|full] [-config base|wib|iq2k]
//	       [-wib-entries N] [-bitvectors N] [-mem-latency N] [-instr N | -measure N] -predict
//	wibsim -bench art [-scale test|run|full] [-instr N] -record-trace out.wtr
//
// A flag the chosen mode would ignore is refused (exit 2): under -sample
// the plan defines the simulated windows and no window's core outlives
// its interval, so -skip, -measure, -instr and the telemetry and
// lifecycle-trace flags are refused; -predict simulates nothing, so it
// reads -bench, -scale, -instr, -measure and the machine the model sees
// (-config, -wib-entries, -bitvectors, -mem-latency) and refuses every
// other flag; -record-trace reads -bench, -scale and -instr alone and
// refuses every other flag. -measure is a second name for the -instr
// budget, so the two together are refused. -wib-entries, -bitvectors and
// -policy shape the WIB machine, so -config base and iq2k refuse them.
//
// -predict skips the detailed simulation entirely: one fast functional
// profiling pass feeds the mechanistic interval model (DESIGN.md §14),
// which prints a closed-form cycle/IPC estimate for the selected
// configuration with a per-penalty-class term breakdown — the same
// model `experiments -explore` prunes campaign sweeps with.
//
// -bench accepts any workload ref: a registry kernel name ("art"),
// "trace:path.wtr" to replay a recorded trace, or "synth:mlp=4,..." for
// a parameterized synthetic kernel. -record-trace records the workload
// on the functional emulator (to -instr instructions, 0 = to halt) and
// writes a .wtr trace file (gzip when the path ends in .gz) instead of
// simulating.
//
// A failed run (invariant violation, deadlock, oracle divergence, or
// deadline) exits 1 after printing the structured error; -crash-dump
// writes its JSON form for offline replay with `wibtrace -replay`.
//
// Observability: -telemetry samples counters/gauges/histograms into a
// JSONL time series every -sample-interval cycles; -trace-out and -kanata
// render per-instruction lifecycle traces (Chrome trace-event JSON and a
// Konata-compatible pipeline view); -pprof writes a Go CPU profile of the
// simulator itself. Render or validate outputs with `wibtrace -render`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"slices"
	"time"

	"largewindow/internal/core"
	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/model"
	"largewindow/internal/sample"
	"largewindow/internal/telemetry"
	"largewindow/internal/trace"
	"largewindow/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, simulates, prints the report
// to stdout and diagnostics to stderr, and returns the exit status (0 ok,
// 1 a failed run, 2 bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wibsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench   = fs.String("bench", "treeadd", "workload ref: kernel name, trace:PATH, or synth:SPEC (see -list)")
		predict = fs.Bool("predict", false, "interval-model prediction instead of detailed simulation (one functional profiling pass)")
		record  = fs.String("record-trace", "", "record the workload to this .wtr trace file and exit (budget = -instr, 0 = to halt)")
		list    = fs.Bool("list", false, "list benchmarks and exit")
		config  = fs.String("config", "base", "base, wib, or iq2k")
		instr   = fs.Uint64("instr", 1_000_000, "committed-instruction budget (0 = to completion)")
		skip    = fs.Uint64("skip", 0, "fast-forward N instructions functionally before detailed simulation")
		measure = fs.Uint64("measure", 0, "measured-region instruction budget (alias of -instr for skip/measure windows)")
		smpl    = fs.String("sample", "", "SMARTS sampling plan, e.g. n=50,period=200000,len=2000,warm=2000[,seed=S,random]")
		cycles  = fs.Int64("cycles", 200_000_000, "cycle budget")
		scale   = fs.String("scale", "run", "kernel scale: test, run, full")
		entries = fs.Int("wib-entries", 2048, "WIB/active-list entries (config=wib)")
		bitvecs = fs.Int("bitvectors", 0, "bit-vector limit, 0=unlimited (config=wib)")
		policy  = fs.String("policy", "banked", "reinsertion policy (config=wib)")
		memLat  = fs.Int64("mem-latency", 250, "main memory latency in cycles")
		dump    = fs.Bool("dump", false, "dump pipeline state after the run")
		ptrace  = fs.Int("pipetrace", 0, "record and print the lifecycle of the last N instructions")

		deadline  = fs.Duration("deadline", 0, "wall-clock limit for the run (0 = none)")
		crashDump = fs.String("crash-dump", "", "on failure, write the structured error as JSON to this file")
		watchdog  = fs.Int64("watchdog", 0, "deadlock watchdog threshold in cycles (0 = default 1M, negative = off)")
		lockstep  = fs.Bool("lockstep", false, "cross-check every commit against the functional emulator (slow)")

		telem     = fs.Bool("telemetry", false, "sample counters/gauges into a JSONL time series")
		telemOut  = fs.String("telemetry-out", "telemetry.jsonl", "telemetry sample file (with -telemetry)")
		sampleIvl = fs.Int64("sample-interval", telemetry.DefaultSampleInterval, "cycles between telemetry samples")
		traceOut  = fs.String("trace-out", "", "write a Chrome trace-event JSON of traced instructions")
		kanataOut = fs.String("kanata", "", "write a Konata-compatible pipeline view of traced instructions")
		pprofOut  = fs.String("pprof", "", "write a CPU profile of the simulator run")
		noFF      = fs.Bool("no-fast-forward", false, "simulate every idle cycle (disable the fast-forward optimization)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, err)
		return code
	}

	if *list {
		for _, sp := range workload.All() {
			fmt.Fprintf(stdout, "%-10s (%s)\n", sp.Name, sp.Suite)
		}
		return 0
	}
	src, err := workload.ParseRef(*bench)
	if err != nil {
		return fail(2, fmt.Errorf("%v (use -list for kernels, or trace:PATH / synth:SPEC)", err))
	}
	sc, err := workload.ParseScale(*scale)
	if err != nil {
		return fail(2, err)
	}

	// A flag the chosen mode would ignore is refused: a run that silently
	// differs from the one asked for is worse than no run. Recording runs
	// the functional emulator alone and reads only the workload, its scale
	// and the instruction budget; a prediction reads those, the machine
	// the model sees and -measure. -measure and -instr are one budget.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	allBut := func(reads ...string) (ignores []string) {
		fs.VisitAll(func(f *flag.Flag) {
			if !slices.Contains(reads, f.Name) {
				ignores = append(ignores, f.Name)
			}
		})
		return ignores
	}
	for _, m := range []struct {
		on      bool
		mode    string
		ignores []string
	}{
		{*record != "", "-record-trace", allBut("record-trace", "bench", "scale", "instr")},
		{*smpl != "", "-sample", []string{"skip", "measure", "instr", "telemetry", "telemetry-out", "sample-interval", "trace-out", "kanata", "pipetrace"}},
		{*predict, "-predict", allBut("predict", "bench", "scale", "instr", "measure", "config", "wib-entries", "bitvectors", "mem-latency")},
		{set["measure"], "-measure", []string{"instr"}},
		{*config == "base" || *config == "iq2k", "-config " + *config, []string{"wib-entries", "bitvectors", "policy"}},
	} {
		for _, name := range m.ignores {
			if m.on && set[name] {
				return fail(2, fmt.Errorf("%s ignores -%s", m.mode, name))
			}
		}
	}
	if *record != "" {
		if err := recordTrace(stdout, *bench, sc, *instr, *record); err != nil {
			return fail(1, err)
		}
		return 0
	}

	var cfg core.Config
	switch *config {
	case "base":
		cfg = core.DefaultConfig()
	case "iq2k":
		cfg = core.ScaledConfig(2048, 2048)
	case "wib":
		cfg = core.WIBConfigSized(*entries, *bitvecs)
		switch *policy {
		case "banked":
		case "program-order":
			cfg.WIB.Banked = false
			cfg.WIB.Policy = core.PolicyProgramOrder
		case "rr-load":
			cfg.WIB.Banked = false
			cfg.WIB.Policy = core.PolicyRoundRobinLoad
		case "oldest-load":
			cfg.WIB.Banked = false
			cfg.WIB.Policy = core.PolicyOldestLoad
		default:
			return fail(2, fmt.Errorf("unknown policy %q", *policy))
		}
	default:
		return fail(2, fmt.Errorf("unknown config %q", *config))
	}
	cfg.Mem.MemLatency = *memLat
	cfg.TraceCapacity = *ptrace
	if (*traceOut != "" || *kanataOut != "") && cfg.TraceCapacity == 0 {
		cfg.TraceCapacity = 4096 // trace renders need the lifecycle ring
	}
	cfg.DeadlockCycles = *watchdog
	cfg.LockstepOracle = *lockstep
	cfg.NoFastForward = *noFF

	budget := *instr
	if *measure > 0 {
		budget = *measure
	}

	prog, err := src.Build(sc)
	if err != nil {
		return fail(1, err)
	}
	if *predict {
		if err := runPredict(stdout, src, sc, cfg, prog, budget); err != nil {
			return fail(1, err)
		}
		return 0
	}

	// A detailed window and a sampled run share everything but the call
	// in the middle: the plan parse and the functional skip come first,
	// then the profile and the deadline wrap whichever simulation runs.
	var plan *sample.Plan
	var win core.Window
	var ffTime time.Duration
	if *smpl != "" {
		p, err := sample.Parse(*smpl)
		if err != nil {
			return fail(2, err)
		}
		plan = &p
	} else {
		win = core.Window{SampleInterval: *sampleIvl, Measure: budget, MaxCycles: *cycles}
		if *skip > 0 {
			ffStart := time.Now()
			if win.Start, err = emu.BuildCheckpoint(prog, *skip); err != nil {
				return fail(1, err)
			}
			ffTime = time.Since(ffStart)
		}
		if *telem {
			f, err := os.Create(*telemOut)
			if err != nil {
				return fail(1, err)
			}
			defer f.Close()
			win.Telemetry = f
		}
	}
	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
		defer pprof.StopCPUProfile()
	}
	ctx := core.WithLabels(context.Background(), src.Name(), sc.String())
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	var out *sample.Outcome
	var p *core.Processor // the detailed window's core; nil for a sampled run
	start := time.Now()
	if plan != nil {
		out, err = sample.Run(ctx, cfg, prog, *plan, *cycles, nil)
	} else {
		var w core.WindowResult
		w, err = core.RunWindow(ctx, cfg, prog, win)
		if w.TelemetryErr != nil {
			fmt.Fprintf(stderr, "writing telemetry: %v\n", w.TelemetryErr)
		}
		if p = w.Proc; p != nil {
			writeInstrTraces(stderr, *traceOut, *kanataOut, p)
		}
		out = sample.OneWindow(w)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		var se *core.SimError
		if errors.As(err, &se) {
			writeCrashDump(stderr, *crashDump, se)
		}
		if *dump {
			// A sampled run's failed core is gone with its interval; the
			// structured error carries the dump taken at the failure.
			if p != nil {
				fmt.Fprintln(stderr, p.DebugDump(20))
			} else if se != nil {
				fmt.Fprintln(stderr, se.Dump)
			}
		}
		return 1
	}

	report(stdout, src, prog, cfg, out, plan, p, ffTime, time.Since(start))
	if p != nil {
		if *dump {
			fmt.Fprintln(stdout, p.DebugDump(20))
		}
		if *ptrace > 0 {
			fmt.Fprintln(stdout)
			core.WriteTimeline(stdout, p.Traces())
		}
	}
	return 0
}

// report prints the run's statistics — wibsim's one view over the
// executor's outcome. A sampled run (plan != nil, the plan as the user
// gave it) reports the point estimate with its 95% confidence interval
// and the measured-window memory-system ratios; a detailed window reports
// the whole machine, reading the counters the outcome does not carry off
// its core p.
func report(w io.Writer, src workload.Source, prog *isa.Program, cfg core.Config, out *sample.Outcome, plan *sample.Plan, p *core.Processor, ffTime, elapsed time.Duration) {
	st := &out.Stats
	fmt.Fprintf(w, "benchmark         %s (%s, %d static instrs)\n", src.Name(), src.Suite(), len(prog.Code))
	fmt.Fprintf(w, "configuration     %s\n", cfg.Name)
	if plan != nil {
		fmt.Fprintf(w, "sampling plan     %s\n", plan)
		fmt.Fprintf(w, "intervals         %d measured of %d planned", len(out.IntervalIPCs), plan.Intervals)
		if out.Halted {
			fmt.Fprintf(w, " (program halted)")
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "coverage          %d instructions functional+detailed, %d measured, in %s\n",
			out.TotalInstr, st.Committed, elapsed.Round(time.Millisecond))
		fmt.Fprintf(w, "IPC               %.4f ± %.4f (95%% CI, stddev %.4f)\n", out.MeanIPC, out.IPCCI95, out.IPCStdDev)
		fmt.Fprintf(w, "branch dir pred   %.4f (%d cond branches)\n", out.BrAcc, st.CondBranches)
		fmt.Fprintf(w, "L1D miss ratio    %.4f (measured windows)\n", out.DL1Miss)
		fmt.Fprintf(w, "UL2 local miss    %.4f (measured windows)\n", out.L2Local)
		fmt.Fprintf(w, "D-TLB miss ratio  %.5f (measured windows)\n", out.TLBMiss)
		fmt.Fprintf(w, "cycles measured   %d\n", st.Cycles)
		return
	}
	h := p.Hierarchy()
	if st.Skipped > 0 {
		fmt.Fprintf(w, "functional skip   %d instructions fast-forwarded in %s\n", st.Skipped, ffTime.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "cycles            %d\n", st.Cycles)
	fmt.Fprintf(w, "committed         %d\n", st.Committed)
	fmt.Fprintf(w, "IPC               %.4f\n", out.MeanIPC)
	fmt.Fprintf(w, "branch dir pred   %.4f (%d cond branches)\n", out.BrAcc, st.CondBranches)
	fmt.Fprintf(w, "mispredicts       %d   misfetches %d   replays %d\n", st.Mispredicts, st.Misfetches, st.Replays)
	fmt.Fprintf(w, "L1D               %d accesses, miss ratio %.4f\n", h.L1DStats().Accesses, out.DL1Miss)
	fmt.Fprintf(w, "L1I               %d accesses, miss ratio %.4f\n", h.L1IStats().Accesses, h.L1IStats().MissRatio())
	fmt.Fprintf(w, "UL2               %d accesses, local miss ratio %.4f\n", h.L2Stats().Accesses, out.L2Local)
	fmt.Fprintf(w, "D-TLB miss ratio  %.5f\n", out.TLBMiss)
	fmt.Fprintf(w, "forwarded loads   %d   store-wait holds %d\n", st.ForwardedLoads, st.StoreWaitHits)
	fmt.Fprintf(w, "avg occupancy     %.1f (active list)\n", st.AvgROBOccupancy())
	fmt.Fprintf(w, "MLP               %.2f avg / %d peak outstanding L2 misses (%d miss cycles)\n",
		st.AvgMLP(), st.MLPPeak, st.MLPCycles())
	if skipped, jumps := p.FastForwardStats(); jumps > 0 {
		fmt.Fprintf(w, "fast-forward      %d idle cycles skipped in %d jumps (%.1f%% of cycles)\n",
			skipped, jumps, 100*float64(skipped)/float64(st.Cycles))
	}
	if cfg.WIB != nil {
		fmt.Fprintf(w, "WIB insertions    %d total, %d reinsertions, avg %.2f / max %d per instruction\n",
			st.WIBInsertions, st.WIBReinsertions, st.AvgWIBInsertions(), st.WIBMaxInsertions)
		fmt.Fprintf(w, "WIB peak occupancy %d; bit-vector stalls %d\n", st.WIBPeakOccupancy, st.BitVectorStalls)
	}
}

// runPredict profiles the workload functionally and prints the interval
// model's closed-form estimate for the selected configuration, with the
// per-penalty-class term breakdown the model decomposes cycles into.
func runPredict(w io.Writer, wl workload.Source, sc workload.Scale, cfg core.Config, prog *isa.Program, budget uint64) error {
	start := time.Now()
	prof, err := model.Collect(prog, sc.String(), model.CollectOptions{
		MaxInstr: budget,
		Mem:      cfg.Mem,
		Bpred:    cfg.Bpred,
	})
	if err != nil {
		return err
	}
	pr := model.Predict(prof, cfg)
	elapsed := time.Since(start)
	pct := func(term float64) float64 {
		if pr.Cycles <= 0 {
			return 0
		}
		return 100 * term / pr.Cycles
	}
	fmt.Fprintf(w, "benchmark         %s (%s, %d static instrs)\n", wl.Name(), wl.Suite(), len(prog.Code))
	fmt.Fprintf(w, "configuration     %s (uncalibrated interval model)\n", cfg.Name)
	fmt.Fprintf(w, "profile           %d instructions in one functional pass (%s)\n",
		prof.N, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "effective window  %.0f (%s family)\n", pr.Weff, model.Family(cfg))
	fmt.Fprintf(w, "predicted cycles  %.0f\n", pr.Cycles)
	fmt.Fprintf(w, "predicted IPC     %.4f\n", pr.IPC)
	fmt.Fprintf(w, "  base dispatch   %12.0f  (%5.1f%%)\n", pr.Base, pct(pr.Base))
	fmt.Fprintf(w, "  long-miss       %12.0f  (%5.1f%%)  %.1f serialized of %d long misses\n",
		pr.LongMiss, pct(pr.LongMiss), pr.SerialMisses, prof.LongLoadMisses)
	fmt.Fprintf(w, "  L2-hit          %12.0f  (%5.1f%%)\n", pr.L2Hit, pct(pr.L2Hit))
	fmt.Fprintf(w, "  branch          %12.0f  (%5.1f%%)  %d mispredicts, %d BTB misses\n",
		pr.Branch, pct(pr.Branch), prof.Mispredicts, prof.BTBMisses)
	fmt.Fprintf(w, "  fetch           %12.0f  (%5.1f%%)  %d L1I misses\n", pr.Fetch, pct(pr.Fetch), prof.L1IMisses)
	fmt.Fprintf(w, "  TLB             %12.0f  (%5.1f%%)  %d D-TLB misses\n", pr.TLB, pct(pr.TLB), prof.TLBMisses)
	fmt.Fprintf(w, "  ramp            %12.0f  (%5.1f%%)\n", pr.Ramp, pct(pr.Ramp))
	return nil
}

// writeInstrTraces renders the core's lifecycle ring in the requested
// formats; empty paths are no-ops.
func writeInstrTraces(stderr io.Writer, chromePath, kanataPath string, p *core.Processor) {
	if chromePath == "" && kanataPath == "" {
		return
	}
	recs := p.Traces()
	write := func(path string, render func(f *os.File) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return
		}
		defer f.Close()
		if err := render(f); err != nil {
			fmt.Fprintf(stderr, "writing %s: %v\n", path, err)
		}
	}
	write(chromePath, func(f *os.File) error { return telemetry.WriteChromeTrace(f, recs) })
	write(kanataPath, func(f *os.File) error { return telemetry.WriteKanata(f, recs) })
}

// writeCrashDump saves a structured failure as JSON (replayable with
// `wibtrace -replay`); a missing path is a no-op.
func writeCrashDump(stderr io.Writer, path string, se *core.SimError) {
	if path == "" {
		return
	}
	data, err := se.JSON()
	if err != nil {
		fmt.Fprintf(stderr, "encoding crash dump: %v\n", err)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(stderr, "writing crash dump: %v\n", err)
		return
	}
	fmt.Fprintf(stderr, "crash dump written to %s (replay with: wibtrace -replay %s)\n", path, path)
}

// recordTrace records the workload on the functional emulator and
// writes the .wtr trace file (gzip-compressed when path ends in .gz).
// Re-recording an existing trace file is rejected by RecordRef.
func recordTrace(w io.Writer, ref string, sc workload.Scale, maxInstr uint64, path string) error {
	start := time.Now()
	tr, err := trace.RecordRef(ref, sc, maxInstr)
	if err != nil {
		return err
	}
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	fi, _ := os.Stat(path)
	var size int64
	if fi != nil {
		size = fi.Size()
	}
	fmt.Fprintf(w, "recorded          %s (%s) at scale %s\n", tr.Name, tr.Suite, sc)
	fmt.Fprintf(w, "instructions      %d (halted=%v) in %s\n", tr.Instrs, tr.Halted, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(w, "trace             %s (%d bytes)\n", path, size)
	fmt.Fprintf(w, "program           %d static instrs, %d data words\n", len(tr.Code), tr.Data.NonZeroWords())
	fmt.Fprintf(w, "identity          %s\n", tr.Identity())
	fmt.Fprintf(w, "replay ref        trace:%s\n", path)
	return nil
}

// Command experiments regenerates the paper's tables and figures
// (DESIGN.md §3 lists the experiment ids and the paper artifacts they
// correspond to).
//
// Usage:
//
//	experiments [-run fig1,table2,fig4,fig5,fig6,policy,fig7,sens|all]
//	            [-instr N] [-skip N] [-sample n=50,period=200000,len=2000,warm=2000]
//	            [-bench a,b,c] [-workload ref]... [-scale test|run|full] [-v]
//	            [-parallel N] [-cache-dir dir] [-resume] [-retries N]
//	            [-server http://host:8420] [-watch]
//	            [-deadline 2m] [-crash-dump dir]
//	            [-telemetry-dir dir] [-sample-interval N] [-pprof cpu.prof]
//	            [-explore] [-topk K] [-audit FRAC] [-seed N]
//
// -explore replaces the experiment tables with a model-pruned
// design-space exploration (DESIGN.md §14): one fast functional
// profiling pass per workload feeds the mechanistic interval model,
// which predicts every cell of the default WIB/cache geometry grid; the
// detailed core simulates only the calibration anchors, the -topk
// predicted-best configs, and a seeded -audit slice of the pruned cells
// that measures live model error. The output is a Pareto table (suite
// IPC vs bit-vector bits vs cache bytes). Simulated cells carry
// ordinary content-addressed IDs, so -cache-dir/-resume dedups them
// against full sweeps, and re-running an exploration with -resume
// executes nothing.
//
// The selected experiments expand into one campaign manifest — every
// (configuration × benchmark) cell they need, deduplicated — which is
// primed onto the engine's worker pool up front, so -parallel N crunches
// the whole grid concurrently while tables render in paper order. With
// -cache-dir every finished cell persists to disk; re-running with
// -resume serves finished cells from the cache and executes only what is
// missing. A live progress line (cells done/total, aggregate instrs/s,
// ETA) repaints on stderr when it is a terminal.
//
// Workloads are selected with -bench (comma-separated registry kernel
// names) and/or -workload (repeatable, one workload ref per flag:
// "bench:gcc", "trace:runs/gcc.wtr", or "synth:mlp=4,miss=0.1,..." —
// repeatable because synth specs contain commas). Either selection
// replaces the default all-18-kernel sweep; refs resolve through
// workload.ParseRef and carry a stable content identity into every
// campaign cell, so -cache-dir/-resume dedup holds for traces and
// synthetics exactly as it does for kernels.
//
// A failing (benchmark × configuration) cell does not abort the sweep:
// the remaining cells still run, a failure-summary table is printed at
// the end, and -crash-dump writes each failure's structured JSON dump
// into the given directory for replay with `wibtrace -replay`.
//
// With -server the campaign executes on a wibserve worker fleet instead
// of in-process: every cell the engine dispatches is submitted to the
// coordinator and awaited over HTTP (transport faults and backpressure
// retry transparently), while the local session keeps its own engine,
// progress line, memoization, and -cache-dir store — the sweep's records
// are byte-identical either way. Local-execution flags (-skip
// checkpointing happens fleet-side per cell, -telemetry-dir, -deadline)
// do not apply to remote cells. -watch swaps the local progress line for
// the coordinator's live event stream, rendered as a one-line fleet
// dashboard (done/failed/running, queue depth, fleet instrs/s, ETA).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/harness"
	"largewindow/internal/sample"
	"largewindow/internal/service"
	"largewindow/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs the campaign, renders
// the tables to stdout and everything else to stderr, and returns the
// exit status (0 ok, 1 a failed cell or campaign, 2 bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs  = fs.String("run", "all", "comma-separated experiment ids (see -list)")
		list    = fs.Bool("list", false, "list experiments and exit")
		instr   = fs.Uint64("instr", 300_000, "committed-instruction budget per run")
		skip    = fs.Uint64("skip", 0, "fast-forward N instructions functionally before each measured region (checkpoints shared across configs)")
		smpl    = fs.String("sample", "", "run every cell as a SMARTS sampled simulation under this plan (n=...,period=...,len=...[,warm=N,seed=S,random])")
		bench   = fs.String("bench", "", "comma-separated benchmark subset (default all 18)")
		wloads  workloadFlags
		scale   = fs.String("scale", "run", "kernel scale: test, run, or full")
		par     = fs.Int("parallel", 0, "concurrent simulations (default GOMAXPROCS)")
		verbose = fs.Bool("v", false, "log each simulation run")

		cacheDir = fs.String("cache-dir", "", "persist finished cells as JSON records in this directory")
		resume   = fs.Bool("resume", false, "serve cells already in -cache-dir from disk instead of re-running them")
		retries  = fs.Int("retries", 0, "attempts per cell across transient failures (0 = 2: run plus one retry)")
		server   = fs.String("server", "", "execute cells on a wibserve coordinator at this base URL instead of in-process")
		progFlag = fs.Bool("progress", true, "live campaign progress line (auto-disabled when stderr is not a terminal)")
		watch    = fs.Bool("watch", false, "render the coordinator's live event stream as a fleet dashboard (needs -server)")

		deadline  = fs.Duration("deadline", 0, "wall-clock limit per simulation (0 = none)")
		crashDump = fs.String("crash-dump", "", "directory for per-failure JSON crash dumps")

		telemDir  = fs.String("telemetry-dir", "", "write one JSONL telemetry series per cell into this directory")
		sampleIvl = fs.Int64("sample-interval", 0, "telemetry sampling period in cycles (0 = default)")
		pprofOut  = fs.String("pprof", "", "write a CPU profile of the whole sweep")

		explore = fs.Bool("explore", false, "model-pruned design-space exploration instead of the experiment tables")
		topK    = fs.Int("topk", 0, "explore: simulate the K best predicted configs in full (0 = 3)")
		audit   = fs.Float64("audit", 0, "explore: fraction of pruned cells simulated to audit the model (0 = 0.1, negative disables)")
		seed    = fs.Uint64("seed", 0, "explore: audit-slice selection seed (same seed + -resume re-executes nothing)")
	)
	fs.Var(&wloads, "workload", "workload ref (bench:NAME, trace:PATH, synth:SPEC); repeatable")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return code
	}

	if *list {
		for _, ex := range harness.Experiments() {
			fmt.Fprintf(stdout, "%-8s %s\n", ex.ID, ex.Title)
		}
		return 0
	}
	sc, err := workload.ParseScale(*scale)
	if err != nil {
		return fail(2, "%v", err)
	}
	if *resume && *cacheDir == "" {
		return fail(2, "-resume needs -cache-dir (there is no cache to resume from)")
	}
	if *watch && *server == "" {
		return fail(2, "-watch needs -server (the event stream lives on the coordinator)")
	}
	opt := harness.Options{
		MaxInstr:       *instr,
		SkipInstr:      *skip,
		Scale:          sc,
		Parallel:       *par,
		RunDeadline:    *deadline,
		TelemetryDir:   *telemDir,
		SampleInterval: *sampleIvl,
		CacheDir:       *cacheDir,
		Resume:         *resume,
	}
	if *smpl != "" {
		plan, err := sample.Parse(*smpl)
		if err != nil {
			return fail(2, "%v", err)
		}
		opt.Sampling = &plan
	}
	if *bench != "" {
		names := strings.Split(*bench, ",")
		for _, n := range names {
			if _, ok := workload.Get(n); !ok {
				return fail(2, "unknown benchmark %q; valid benchmarks:\n  %s", n, strings.Join(workload.Names(), "\n  "))
			}
		}
		opt.Benchmarks = names
	}
	for _, ref := range wloads {
		if _, err := workload.ParseRef(ref); err != nil {
			return fail(2, "bad -workload ref: %v", err)
		}
		opt.Benchmarks = append(opt.Benchmarks, ref)
	}
	if *verbose {
		opt.Log = stderr
	}
	opt.Retry.MaxAttempts = *retries

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			return fail(1, "%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, "%v", err)
		}
		defer pprof.StopCPUProfile()
	}
	var remote *service.Client
	if *server != "" {
		remote = service.NewClient(service.ClientOptions{Server: *server, Log: opt.Log})
		if err := remote.Healthy(); err != nil {
			return fail(1, "experiments: coordinator %s unreachable: %v", *server, err)
		}
		opt.Exec = remote.Exec
		// Remote cells fail transiently on transport faults and lost
		// workers (RemoteError), not on SimErrors — swap the classifier.
		opt.Retry.IsTransient = service.IsTransient
	}

	s := harness.NewSession(opt)
	if serr := s.StoreErr(); serr != nil {
		fmt.Fprintf(stderr, "experiments: cache unavailable, running without it: %v\n", serr)
	}

	// The two modes differ only in what they render; what surrounds the
	// rendering — the live line before it, the accounting after — is one
	// sequence below.
	var render func() error
	var expected int
	if *explore {
		render = func() error {
			return renderExploration(s, remote, harness.ExploreOptions{TopK: *topK, AuditFrac: *audit, Seed: *seed}, stdout, stderr)
		}
	} else {
		// Prime the full campaign manifest so the worker pool crunches
		// every cell of the selected experiments concurrently while tables
		// render in paper order.
		ids := strings.Split(*runIDs, ",")
		manifest, err := s.ManifestFor(ids)
		if err != nil {
			return fail(2, "experiments: %v", err)
		}
		expected = s.Prime(manifest)
		if *verbose {
			fmt.Fprintf(stderr, "campaign: primed %d cells onto %d workers\n", expected, s.Campaign().Workers())
		}
		render = func() error { return harness.RunExperiments(s, ids, stdout) }
	}

	// -watch replaces the local progress line with the coordinator's
	// fleet-wide view; two repainting lines would fight over the cursor.
	stopLive := func() {}
	if *watch {
		stopLive = watchFleet(*server, stderr).stop
	} else if *progFlag && isTerminal(stderr) {
		stopLive = campaign.NewProgress(s.Campaign(), stderr, 0, uint64(expected)).Stop
	}
	err = render()
	stopLive()

	fmt.Fprintln(stderr, s.Campaign().Snapshot().Summary())
	if remote != nil {
		if st, serr := remote.Stats(); serr == nil {
			fmt.Fprintf(stderr, "coordinator: %s\n", st.Summary())
		}
	}
	fails := s.Failures()
	if len(fails) > 0 {
		fmt.Fprintln(stderr)
		fmt.Fprint(stderr, s.FailureSummary())
		writeCrashDumps(stderr, *crashDump, fails)
	}
	if err != nil {
		return fail(1, "experiments: %v", err)
	}
	if len(fails) > 0 {
		return 1
	}
	return 0
}

// renderExploration runs the model-pruned design-space exploration over
// the default WIB/cache geometry grid and renders its Pareto table. In
// server mode the pruned/audited accounting is also reported to the
// coordinator (an empty pruned-only submission), so the fleet's
// progress snapshots and event stream cover the whole grid.
func renderExploration(s *harness.Session, remote *service.Client, opt harness.ExploreOptions, stdout, stderr io.Writer) error {
	rep, err := s.Explore(harness.ExploreGrid(), opt)
	if err != nil {
		return fmt.Errorf("explore: %w", err)
	}
	for _, t := range harness.ExploreTables(rep) {
		t.Render(stdout)
		fmt.Fprintln(stdout)
	}
	if remote != nil {
		if _, perr := remote.SubmitPruned(nil, uint64(rep.Pruned), uint64(rep.Audited)); perr != nil {
			fmt.Fprintf(stderr, "experiments: reporting pruned counts: %v\n", perr)
		}
	}
	return nil
}

// isTerminal reports whether w is an interactive terminal (the live
// progress line is repaint-in-place and belongs only there).
func isTerminal(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	st, err := f.Stat()
	return err == nil && st.Mode()&os.ModeCharDevice != 0
}

// writeCrashDumps saves each failed cell's structured error under dir as
// <config>-<bench>.json; a missing dir is a no-op.
func writeCrashDumps(stderr io.Writer, dir string, fails []*harness.Result) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "crash-dump dir: %v\n", err)
		return
	}
	for _, f := range fails {
		var se *core.SimError
		if !errors.As(f.Err, &se) {
			continue // panic without machine state: nothing replayable
		}
		data, err := se.JSON()
		if err != nil {
			continue
		}
		path := filepath.Join(dir, harness.CellFileName(f.Config, f.Bench, ".json"))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintf(stderr, "writing %s: %v\n", path, err)
			continue
		}
		fmt.Fprintf(stderr, "crash dump written to %s (replay with: wibtrace -replay %s)\n", path, path)
	}
}

// workloadFlags collects repeated -workload flags. One ref per flag
// instance: synth specs contain commas, so a comma-split list flag
// cannot carry them.
type workloadFlags []string

func (w *workloadFlags) String() string { return strings.Join(*w, " ") }
func (w *workloadFlags) Set(v string) error {
	*w = append(*w, v)
	return nil
}

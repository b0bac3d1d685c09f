// Command benchmark is the repository's benchmark: six workloads, one per
// fidelity tier of the simulator, an end-to-end metric ledger measured
// with tracing off, and a traced layered run that yields the per-layer
// metrics. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run ./benchmark                                  every workload
//	go run ./benchmark -workload fig4-wib -seed 2       one workload
//	go run ./benchmark -trace out/                      plus the layered run and Chrome traces
//	go run ./benchmark -repeat 3 -out a.json            medians and quartiles, saved
//	go run ./benchmark -compare a.json b.json           apply each metric's bound
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// runSeconds is how long one run measures by default; BENCHMARK.json's
// run_seconds carries the same number.
const runSeconds = 10

// Scratch and output directories, relative to the working directory and
// named in the repository's .gitignore.
const (
	scratchRoot     = ".bench_tmp"
	defaultTraceDir = ".bench_out/trace"
)

// report is the outcome of one run of one workload.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	SimDigest string            `json:"sim_digest"`
	RawWallS  float64           `json:"raw_wall_s"`          // wall_s as measured, before the division by HostSlow
	HostSlow  float64           `json:"host_slowdown"`       // median over the timed passes (calib.go)
	Cells     []string          `json:"cells,omitempty"`     // sorted simulated tuples behind sim_digest
	Metrics   map[string]metric `json:"metrics"`             // end to end, measured with tracing off
	PerLayer  map[string]metric `json:"per_layer,omitempty"` // from the layered run
	Samples   map[string]int    `json:"samples"`             // observations behind each metric
	Layers    []layerStat       `json:"layers,omitempty"`    // self time per layer in the layered run
	TraceFile string            `json:"trace_file,omitempty"`
	Failures  []string          `json:"failures,omitempty"`
}

// contractLine is the one JSON object a run ends its standard output
// with: the end-to-end metrics of an untraced run, the per-layer metrics
// of a traced one.
func (r *report) contractLine() string {
	metrics := r.Metrics
	if r.Traced {
		metrics = r.PerLayer
	}
	data, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return string(data)
}

// outFile is what -out writes and -compare reads.
type outFile struct {
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Quick      bool     `json:"quick,omitempty"`
	Runs       []report `json:"runs"`
}

func writeOut(path string, runs []report, quick bool) error {
	data, err := json.MarshalIndent(outFile{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick: quick, Runs: runs,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runOpts are one run's settings.
type runOpts struct {
	seed     uint64
	seconds  float64
	sz       sizes
	traceDir string // "" = untraced run only
	tmpRoot  string
}

// runWorkload sets the workload up, measures it with tracing off, checks
// its outputs and, when asked, follows with the layered run.
func runWorkload(w *workloadDef, opt runOpts) (*report, error) {
	tmp := filepath.Join(opt.tmpRoot, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		// Tens of thousands of records go; let the filesystem finish with
		// them now. Left to the journal, the removals slowed the next run's
		// set-up, which creates files, by up to half.
		os.RemoveAll(tmp)
		syscall.Sync()
	}()
	e := &env{seed: opt.seed, sz: opt.sz, tmp: tmp}

	var inst *instance
	var setups []float64
	before := calibrate()
	for total := 0.0; len(setups) < setupMinReps || (total < setupMinSeconds && len(setups) < setupMaxReps); {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[len(setups)-1]
	}
	setupSlow := slowdown(before, calibrate()) // the set-ups take well under a second together

	t := measure(inst, opt.seconds)
	peakRSS := peakRSSMB() // before the checks read anything back
	checks, bad := inst.verify(t.first)
	inst.close()

	rep := &report{
		Workload:  w.name,
		Seed:      opt.seed,
		Seconds:   opt.seconds,
		Attempted: t.calls + checks + len(t.tupleByID),
		Failed:    t.failed + len(bad) + t.mismatch,
		Cells:     cellTuples(allCells(t.first)),
		Failures:  append(t.failures, bad...),
		RawWallS:  t.passSeconds(false),
		HostSlow:  median(t.slow),
	}
	rep.SimDigest = simDigest(rep.Cells)

	ops := float64(t.passOps())
	m := metricSet{}
	m.set("setup_s", median(setups)/setupSlow, len(setups))
	m.set("wall_s", t.passSeconds(true), t.passes)
	m.set("ops_per_s", ratio(ops, t.passSeconds(true)), t.passes)
	m.set("allocs_per_kop", ratio(float64(t.mallocs), ops*float64(t.passes)/1000), t.passes)
	m.set("peak_rss_mb", peakRSS, 1)
	lat := t.callLatencies()
	m.set("call_ms_p95", quantile(lat, 0.95), len(lat)*t.passes)
	rep.Metrics, rep.Samples = m.render(endToEnd)

	if opt.traceDir != "" {
		rep.Traced = true
		lc := &layerCtx{tr: newTracer(), m: metricSet{}, untraced: t}
		before := calibrate()
		h0 := readHost()
		if err := w.layered(e, lc); err != nil {
			return nil, fmt.Errorf("%s: layered run: %w", w.name, err)
		}
		lc.hostMetrics(h0)
		lc.m.set("host.slowdown", slowdown(before, calibrate()), 2)
		if !opt.sz.quick { // the recorded baseline is full scale
			facadeDigest(lc, w.name, opt.seed)
		}
		rep.Attempted += lc.crossCheck(t.tupleByID)
		rep.Failed += len(lc.failures)
		rep.Failures = append(rep.Failures, lc.failures...)
		rep.Layers = lc.tr.selfTimes()
		path, err := lc.tr.write(opt.traceDir, w.name)
		if err != nil {
			return nil, fmt.Errorf("%s: writing trace: %w", w.name, err)
		}
		rep.TraceFile = path
		var n map[string]int
		rep.PerLayer, n = lc.m.render(perLayer)
		for name, v := range n {
			rep.Samples[name] = v
		}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// print writes the report's human-readable lines: one per metric, then
// the failure count and digest, and for a traced run the per-layer
// metrics it measured, each layer's self time and the trace file.
func (r *report) print(w io.Writer) {
	line := func(name string, m metric) {
		fmt.Fprintf(w, "%-14s %-36s %16.6g %-10s n=%d\n", r.Workload, name, m.Value, m.Unit, r.Samples[name])
	}
	for _, d := range endToEnd {
		line(d.Name, r.Metrics[d.Name])
	}
	printAsMeasured(w, r.Workload, r.RawWallS, r.HostSlow)
	fmt.Fprintf(w, "%-14s %-36s %d/%d\n", r.Workload, "failed/attempted", r.Failed, r.Attempted)
	fmt.Fprintf(w, "%-14s %-36s %s\n", r.Workload, "sim_digest", r.SimDigest)
	if r.Traced {
		for _, d := range perLayer {
			if r.Samples[d.Name] > 0 { // a layer this workload does not exercise reports 0
				line(d.Name, r.PerLayer[d.Name])
			}
		}
		for _, l := range r.Layers {
			fmt.Fprintf(w, "%-14s %-36s %16.6g %-10s n=%d\n", r.Workload, "self_time."+l.Layer, l.Self, "s", l.Spans)
		}
		fmt.Fprintf(w, "%-14s %-36s %s\n", r.Workload, "trace_file", r.TraceFile)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", r.Workload, f)
	}
}

// printAsMeasured prints what the reference-speed times above it were
// derived from: wall_s as measured, and the host's slowdown beside it.
func printAsMeasured(w io.Writer, workload string, rawWall, slow float64) {
	fmt.Fprintf(w, "%-14s %-36s %16.6g %-10s (wall_s as measured; the times above are at reference speed)\n", workload, "raw_wall_s", rawWall, "s")
	fmt.Fprintf(w, "%-14s %-36s %16.6g %-10s\n", workload, "host_slowdown", slow, "ratio")
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload `name`, or all")
		seed    = flag.Uint64("seed", 1, "workload seed: synth dials, fleet cell order")
		seconds = flag.Float64("seconds", runSeconds, "how long each run measures")
		repeat  = flag.Int("repeat", 1, "runs per workload; reports median and quartiles")
		trace   = flag.String("trace", "0", "`dir` for the layered run's Chrome traces (1 = "+defaultTraceDir+", 0 = no layered run)")
		out     = flag.String("out", "", "write every run to `file.json` (the input of -compare)")
		quick   = flag.Bool("quick", false, "test-scale sizes (self-test only)")
		compare = flag.Bool("compare", false, "compare two -out files: -compare a.json b.json")
		child   = flag.Bool("child", false, "internal: run one workload in this process")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two files: -compare a.json b.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	traceDir := *trace
	switch traceDir {
	case "0":
		traceDir = ""
	case "1":
		traceDir = defaultTraceDir
	}
	opt := runOpts{seed: *seed, seconds: *seconds, sz: fullSizes, traceDir: traceDir, tmpRoot: scratchRoot}
	if *quick {
		opt.sz = quickSizes
	}

	// One workload once runs here; anything more re-executes this binary
	// once per run, so memory, allocations and GC state never leak from
	// one workload into the next.
	if *child || (*name != "all" && *repeat == 1) {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		rep, err := runWorkload(w, opt)
		if err != nil {
			fatal(err)
		}
		os.Remove(scratchRoot) // if this run left it empty
		if *out != "" {
			if err := writeOut(*out, []report{*rep}, *quick); err != nil {
				fatal(err)
			}
		}
		rep.print(os.Stdout)
		fmt.Println(rep.contractLine())
		if !rep.Correct {
			os.Exit(1)
		}
		return
	}

	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if findWorkload(*name) == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	var runs []report
	failed := false
	for _, n := range names {
		var reps []report
		for i := 0; i < *repeat; i++ {
			rep, err := runChild(n, *seed, *seconds, *trace, *quick)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", n, err)
				failed = true
				continue
			}
			failed = failed || !rep.Correct
			reps = append(reps, *rep)
		}
		printMerged(os.Stdout, reps)
		runs = append(runs, reps...)
	}
	os.Remove(scratchRoot) // if the children left it empty
	if *out != "" {
		if err := writeOut(*out, runs, *quick); err != nil {
			fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runChild re-executes this binary for one run of one workload and reads
// its report back through a scratch file.
func runChild(name string, seed uint64, seconds float64, trace string, quick bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(scratchRoot, "report-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-out", f.Name()}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // a child that found failures exits non-zero but still reports
	data, err := os.ReadFile(f.Name())
	if err != nil {
		return nil, err
	}
	var of outFile
	if err := json.Unmarshal(data, &of); err != nil || len(of.Runs) != 1 {
		return nil, fmt.Errorf("child died without a report: %v", runErr)
	}
	return &of.Runs[0], nil
}

// printMerged prints one line per metric over the repeats of a workload:
// the value of a single run, else median and quartiles.
func printMerged(w io.Writer, reps []report) {
	if len(reps) == 0 {
		return
	}
	if len(reps) == 1 {
		reps[0].print(w)
		return
	}
	first := reps[0]
	attempted, failed := 0, 0
	row := func(d metricDef, of func(r *report) map[string]metric) {
		vals := make([]float64, len(reps))
		for i := range reps {
			vals[i] = of(&reps[i])[d.Name].Value
		}
		s := sortedCopy(vals)
		fmt.Fprintf(w, "%-14s %-36s %16.6g %-10s n=%d runs=%d q1=%.6g q3=%.6g\n", first.Workload, d.Name,
			quantile(s, 0.5), d.Unit, first.Samples[d.Name], len(reps), quantile(s, 0.25), quantile(s, 0.75))
	}
	for _, d := range endToEnd {
		row(d, func(r *report) map[string]metric { return r.Metrics })
	}
	for _, d := range perLayer {
		if first.Traced && first.Samples[d.Name] > 0 {
			row(d, func(r *report) map[string]metric { return r.PerLayer })
		}
	}
	raw, slow := make([]float64, len(reps)), make([]float64, len(reps))
	for i, r := range reps {
		raw[i], slow[i] = r.RawWallS, r.HostSlow
	}
	printAsMeasured(w, first.Workload, median(raw), median(slow))
	digest := first.SimDigest
	for _, r := range reps {
		attempted += r.Attempted
		failed += r.Failed
		if r.SimDigest != first.SimDigest {
			digest = "differs between repeats"
		}
		for _, f := range r.Failures {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", r.Workload, f)
		}
	}
	fmt.Fprintf(w, "%-14s %-36s %d/%d\n", first.Workload, "failed/attempted", failed, attempted)
	fmt.Fprintf(w, "%-14s %-36s %s\n", first.Workload, "sim_digest", digest)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

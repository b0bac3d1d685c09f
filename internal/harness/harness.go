// Package harness runs the paper's evaluation: it expands (benchmark ×
// configuration) grids into campaign cells, executes them through the
// campaign engine (internal/campaign), and regenerates every
// table and figure of the paper (DESIGN.md §3 maps each experiment to the
// module that implements it).
//
// Session is a thin view over the campaign engine: Run and RunAll resolve
// cells through it — it memoizes in-process, executes in submission order
// on a bounded pool, records every failed cell once, and (when CacheDir is
// set) persists every finished cell so a later session resumes without
// recomputation.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/emu"
	"largewindow/internal/flight"
	"largewindow/internal/isa"
	"largewindow/internal/obs"
	"largewindow/internal/sample"
	"largewindow/internal/stats"
	_ "largewindow/internal/trace" // register trace: and synth: workload schemes
	"largewindow/internal/workload"
)

// Options controls a harness session.
type Options struct {
	// MaxInstr is the committed-instruction budget per run (the paper
	// simulates fixed 100M-instruction windows; we default to 300K on
	// scaled data sets — see EXPERIMENTS.md).
	MaxInstr uint64
	// MaxCycles bounds runaway runs.
	MaxCycles int64
	// Scale selects kernel working-set sizing.
	Scale workload.Scale
	// Benchmarks restricts the workload set (nil = every registry
	// kernel). Entries are workload refs resolved through
	// workload.ParseRef: bare kernel names ("gcc"), explicit
	// "bench:gcc", recorded traces ("trace:path.wtr"), or synthetic
	// specs ("synth:mlp=4,miss=0.1").
	Benchmarks []string
	// Parallel is the number of concurrent simulations (0 = GOMAXPROCS).
	Parallel int
	// Log receives progress lines (nil = quiet).
	Log io.Writer
	// RunDeadline bounds each simulation's wall-clock time; a run that
	// exceeds it fails with a transient SimError and is retried under the
	// session's Retry policy. 0 means no deadline.
	RunDeadline time.Duration
	// Retry configures the cell re-execution policy (budget, backoff,
	// jitter). The zero value retries transient failures once,
	// immediately — the historical behavior. A nil Retry.IsTransient
	// uses the harness classifier (transient SimErrors, minus context
	// cancellation).
	Retry campaign.RetryPolicy
	// Context, when non-nil, is the base context of every simulation the
	// session executes: cancelling it aborts in-flight cells (they fail
	// with a non-retryable cancellation error and are never persisted)
	// and fails all cells not yet started.
	Context context.Context
	// Exec, when non-nil, replaces local execution entirely: every cell
	// the engine decides to run is handed to this function instead of
	// being simulated in-process. It is how `experiments -server` routes
	// a campaign to a remote coordinator. Local-only options (PreRun,
	// TelemetryDir, SkipInstr checkpointing) do not apply to cells a
	// custom Exec runs elsewhere.
	Exec campaign.ExecFunc
	// PreRun, when non-nil, is invoked on each freshly constructed
	// processor before its run starts. It exists for tests (fault
	// injection, tracing hooks); production sessions leave it nil. Note
	// that cache-served cells never construct a processor, so PreRun and
	// CacheDir+Resume do not combine meaningfully.
	PreRun func(p *core.Processor, cfg core.Config, src workload.Source)
	// TelemetryDir, when non-empty, attaches a telemetry collector to
	// every run and writes one JSONL sample series per cell to
	// <dir>/<config>-<bench>.jsonl (the directory is created on demand).
	TelemetryDir string
	// SampleInterval is the telemetry sampling period in cycles
	// (0 = telemetry.DefaultSampleInterval).
	SampleInterval int64
	// CacheDir, when non-empty, persists every finished cell's result as
	// schema-versioned JSON in an on-disk content-addressed store.
	CacheDir string
	// Resume serves cells already present in CacheDir from disk instead
	// of re-executing them. Without Resume the store is write-only and a
	// fresh campaign overwrites old records.
	Resume bool
	// SkipInstr fast-forwards each benchmark's first n instructions on the
	// functional emulator before detailed simulation (0 = fully detailed
	// runs, today's behavior). Checkpoints are content-addressed by
	// (benchmark, scale, skip) only — configuration-independent — so one
	// functional pass is shared by every config cell, single-flighted
	// through the session's checkpoint cache and persisted under
	// CacheDir/ckpt when a cache directory is configured.
	SkipInstr uint64
	// Sampling, when non-nil, runs every cell as a SMARTS-style sampled
	// simulation under this plan (internal/sample): the functional
	// emulator carries each benchmark between many short detailed
	// windows, and the cell's IPC becomes the mean of the window IPCs
	// with a 95% confidence interval. Sampled cells ignore SkipInstr,
	// MaxInstr, PreRun, and TelemetryDir — the plan defines the simulated
	// region, and the detailed core is recreated per interval.
	Sampling *sample.Plan
}

func (o Options) withDefaults() Options {
	if o.MaxInstr == 0 {
		o.MaxInstr = 300_000
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 100_000_000
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o
}

// Session runs simulations as a view over a campaign engine, whose cell
// table is the session's one memo of results and failures alike — a
// crashed cell is not silently re-run by the next experiment needing it.
// Construction never fails fatally: an unusable cache directory degrades
// to an in-process-only session with the error recorded in StoreErr.
type Session struct {
	opt      Options
	eng      *campaign.Engine
	store    *campaign.Store
	ckpts    *campaign.Checkpoints
	storeErr error

	// progLen memoizes measured program lengths by "identity/scale", so
	// auto-period sampling plans pay one sizing pass per workload, not one
	// per cell (a Fig.4-style sweep runs several configs per kernel, and
	// runs them concurrently).
	progLen flight.Memo[uint64]

	// sources memoizes resolved workload refs ("trace:...") so a campaign
	// of N cells over one trace file decodes it once, not N times.
	sources flight.Memo[workload.Source]

	// programs shares one build of a program, by "identity/scale", among
	// the cells that run it at the same time, and forgets it once none
	// does: a session-lifetime memo would keep every program of a sweep.
	programs flight.Shared[*isa.Program]

	// holds are the program holds that explorer cells keep until they
	// end, by cell ID (see cellEnded).
	holdsMu sync.Mutex
	holds   map[string][]func()

	// inFlight is the last interval report of each sampled cell the engine
	// runs now (execLocal). A slice, not a map: a sum's order cannot show.
	inFlightMu sync.Mutex
	inFlight   []*cellIntervals

	// The explorer's prune decisions (Explore's Notify): cells the
	// interval model answered, and the audit slice simulated anyway.
	modelPruned, modelAudited atomic.Uint64
}

// cellIntervals is one sampled cell's last interval report.
type cellIntervals struct{ done, planned uint64 }

// NewSession creates a harness session. When opt.CacheDir is set, the
// session opens (creating if needed) the persistent result store there;
// a store that cannot be opened is reported via StoreErr and the session
// falls back to in-process memoization only.
func NewSession(opt Options) *Session {
	opt = opt.withDefaults()
	s := &Session{opt: opt, holds: make(map[string][]func())}
	if opt.CacheDir != "" {
		store, err := campaign.NewStore(opt.CacheDir)
		if err != nil {
			s.storeErr = err
			if opt.Log != nil {
				fmt.Fprintf(opt.Log, "  cache disabled: %v\n", err)
			}
		} else {
			s.store = store
		}
	}
	// The checkpoint cache is a map until a cell asks for a skip window,
	// so every session has one: local campaigns share a functional pass per
	// (bench, scale, skip) across configs, and service workers — whose
	// cells carry their own skip windows — across the cells they lease.
	ckptDir := ""
	if s.store != nil {
		ckptDir = filepath.Join(opt.CacheDir, "ckpt")
	}
	s.ckpts, _ = campaign.NewCheckpoints(ckptDir, opt.Log) // never fails: the directory is created on first persist
	exec := s.execLocal
	if opt.Exec != nil {
		exec = opt.Exec
	}
	retry := opt.Retry
	if retry.IsTransient == nil {
		retry.IsTransient = Transient
	}
	s.eng = campaign.NewEngine(func(cell campaign.Cell) (*campaign.Record, error) {
		defer s.cellEnded(cell)
		return exec(cell)
	}, campaign.Options{
		Workers: opt.Parallel,
		Store:   s.store,
		Resume:  opt.Resume,
		Retry:   retry,
		Log:     opt.Log,
	})
	return s
}

// Campaign exposes the session's engine (cell counts, priming).
func (s *Session) Campaign() *campaign.Engine { return s.eng }

// Snapshot is the session's campaign progress: the engine's cell counts,
// with the counts the session keeps itself — its checkpoint cache's, the
// explorer's prune decisions, and the sampled cells in flight.
func (s *Session) Snapshot() campaign.Snapshot {
	var inFlight obs.InFlight
	s.inFlightMu.Lock()
	for _, iv := range s.inFlight {
		inFlight.Add(iv.done, iv.planned)
	}
	s.inFlightMu.Unlock()
	snap := s.eng.Snapshot()
	snap.CkptBuilt, snap.CkptReused = s.ckpts.Counts()
	snap.ModelPruned, snap.ModelAudited = s.modelPruned.Load(), s.modelAudited.Load()
	snap.InFlight = inFlight
	return snap
}

// execLocal is the engine's executor when cells run in-process: ExecCell,
// with a sampled cell's interval reports kept in the in-flight table
// while it runs. A detailed cell reports none, so it takes no callback.
func (s *Session) execLocal(cell campaign.Cell) (*campaign.Record, error) {
	if cell.Sampling == nil {
		return s.ExecCell(cell, nil)
	}
	var iv *cellIntervals // registered at the cell's first report
	defer func() {
		s.inFlightMu.Lock()
		defer s.inFlightMu.Unlock()
		s.inFlight = slices.DeleteFunc(s.inFlight, func(c *cellIntervals) bool { return c == iv })
	}()
	return s.ExecCell(cell, func(done, planned int) {
		s.inFlightMu.Lock()
		defer s.inFlightMu.Unlock()
		if iv == nil {
			iv = &cellIntervals{}
			s.inFlight = append(s.inFlight, iv)
		}
		iv.done, iv.planned = uint64(done), uint64(planned)
	})
}

// StoreErr reports why the persistent store is unavailable (nil when it
// is usable or was never requested).
func (s *Session) StoreErr() error { return s.storeErr }

// cell maps one (configuration × workload) onto its campaign cell under
// the session's budgets. Registry kernels keep the historical cell shape
// (Bench only) so pre-existing campaign stores resume unchanged;
// non-bench sources additionally carry their resolvable ref and their
// content identity, and only the identity enters the cell ID.
func (s *Session) cell(cfg core.Config, src workload.Source) campaign.Cell {
	c := campaign.Cell{
		Config:    cfg,
		Bench:     src.Name(),
		Scale:     s.opt.Scale,
		MaxInstr:  s.opt.MaxInstr,
		MaxCycles: s.opt.MaxCycles,
		SkipInstr: s.opt.SkipInstr,
		Sampling:  s.opt.Sampling,
	}
	if !workload.IsBench(src) {
		c.Workload = src.Ref()
		c.WorkloadID = src.Identity()
	}
	return c
}

// benchmarks resolves the selected workload refs. A nil selection means
// every registry kernel in table order; an explicit selection is
// resolved entry by entry, so a misspelled kernel or malformed synth
// spec fails the sweep instead of being silently dropped.
func (s *Session) benchmarks() ([]workload.Source, error) {
	if len(s.opt.Benchmarks) == 0 {
		all := workload.All()
		out := make([]workload.Source, len(all))
		for i, sp := range all {
			out[i] = sp.Source()
		}
		return out, nil
	}
	out := make([]workload.Source, 0, len(s.opt.Benchmarks))
	for _, ref := range s.opt.Benchmarks {
		src, err := s.resolveRef(ref)
		if err != nil {
			return nil, err
		}
		out = append(out, src)
	}
	return out, nil
}

// resolveRef parses one workload ref, memoized session-wide so a
// campaign of many cells over one trace file decodes it once.
func (s *Session) resolveRef(ref string) (workload.Source, error) {
	src, err, _ := s.sources.Do(ref, func() (workload.Source, error) { return workload.ParseRef(ref) })
	return src, err
}

// resultKey names a source in RunAll maps and log lines: registry
// kernels keep their bare name (table order and suite averages match on
// it); external sources use the full ref so a trace of gcc can never
// collide with the gcc kernel itself.
func resultKey(src workload.Source) string {
	if workload.IsBench(src) {
		return src.Name()
	}
	return src.Ref()
}

// Run simulates one workload under one configuration by resolving its
// campaign cell on the engine: served from the engine's memo, from the
// persistent store (Resume), or executed on its worker pool — single-
// flight in every case, so every caller gets the same *Record, with
// transient failures retried before the engine records the cell as
// failed.
func (s *Session) Run(cfg core.Config, src workload.Source) (*campaign.Record, error) {
	rec, err := s.eng.Run(s.cell(cfg, src))
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", resultKey(src), cfg.Name, err)
	}
	return rec, nil
}

// holdUntilEnd keeps a program hold until cell ends.
func (s *Session) holdUntilEnd(cell campaign.Cell, release func()) {
	id := cell.ID()
	s.holdsMu.Lock()
	defer s.holdsMu.Unlock()
	s.holds[id] = append(s.holds[id], release)
}

// cellEnded releases the holds kept until cell ends, once, for whichever
// comes first: the engine's executor returning, or the caller collecting
// the cell, which is the only one to see a memo or store hit end. A cell
// the engine retries may build its program again.
func (s *Session) cellEnded(cell campaign.Cell) {
	s.holdsMu.Lock()
	defer s.holdsMu.Unlock()
	if len(s.holds) == 0 {
		return
	}
	id := cell.ID()
	for _, release := range s.holds[id] {
		release()
	}
	delete(s.holds, id)
}

// resolveCell maps a cell back to its workload source. Bench cells go
// through the registry; external cells re-resolve their recorded ref and
// must reproduce the identity the cell was addressed under — a trace
// file that changed on disk is a permanent (non-retryable) failure, not
// a silently different experiment.
func (s *Session) resolveCell(cell campaign.Cell) (workload.Source, error) {
	if cell.Workload == "" {
		spec, ok := workload.Get(cell.Bench)
		if !ok {
			return nil, fmt.Errorf("harness: unknown benchmark %q", cell.Bench)
		}
		return spec.Source(), nil
	}
	src, err := s.resolveRef(cell.Workload)
	if err != nil {
		return nil, fmt.Errorf("harness: resolving workload %q: %w", cell.Workload, err)
	}
	if cell.WorkloadID != "" && src.Identity() != cell.WorkloadID {
		return nil, fmt.Errorf("harness: workload %q resolved to identity %s, but the cell was addressed as %s",
			cell.Workload, src.Identity(), cell.WorkloadID)
	}
	return src, nil
}

// ExecCell executes one campaign cell in-process, panic-isolated, without
// touching the session's engine. It is the session engine's executor,
// and the execution surface service workers mount behind the
// coordinator protocol: the coordinator owns dedup, retries, and
// persistence, so the worker needs raw single-shot execution — but still
// shares the session's checkpoint cache across the cells it is leased.
//
// onInterval, when not nil, reports a sampled cell's interval progress:
// onInterval(done, planned) fires once up front (done == 0, announcing the
// plan size) and again as each measured window completes. Detailed
// (non-sampled) cells never invoke it. Service workers pass a callback
// that stashes the counts for their next lease heartbeat, letting the
// coordinator fold fractional in-flight progress into the fleet ETA; the
// session's own engine passes one that keeps them in the session's
// in-flight table, for the local progress line's interval k/N and ETA.
//
// Every cell is one shape: unless the session's context is done, resolve
// the workload, take its program from the session's table of programs in
// flight (building it unless a cell running now already has), run
// either one detailed window
// (core.RunWindow, from the session's shared checkpoint when the cell
// skips) or the cell's sampling plan (sample.Run, many windows), and map
// the outcome onto a Record.
func (s *Session) ExecCell(cell campaign.Cell, onInterval func(done, planned int)) (rec *campaign.Record, err error) {
	defer func() {
		if r := recover(); r != nil {
			rec, err = nil, fmt.Errorf("harness: panic executing %s: %v\n%s", cell, r, debug.Stack())
		}
	}()
	if ctx := s.opt.Context; ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	src, err := s.resolveCell(cell)
	if err != nil {
		return nil, err
	}
	cfg := cell.Config
	key := programKey(src, cell.Scale)
	prog, release, err := s.programs.Acquire(key, func() (*isa.Program, error) { return src.Build(cell.Scale) })
	defer release()
	if err != nil {
		return nil, fmt.Errorf("harness: building %s: %w", resultKey(src), err)
	}
	var out *sample.Outcome
	if cell.Sampling != nil {
		plan := *cell.Sampling
		if !plan.Resolved() {
			total, err, _ := s.progLen.Do(key,
				func() (uint64, error) { return sample.ProgramLength(prog) })
			if err != nil {
				return nil, err
			}
			plan = plan.Resolve(total)
		}
		ctx, cancel := s.runContext(cell, src)
		defer cancel()
		if onInterval != nil {
			onInterval(0, plan.Intervals)
		}
		out, err = sample.Run(ctx, cfg, prog, plan, cell.MaxCycles, onInterval)
		if err != nil {
			return nil, err
		}
	} else {
		win := core.Window{
			SampleInterval: s.opt.SampleInterval,
			Measure:        cell.MaxInstr,
			MaxCycles:      cell.MaxCycles,
		}
		if cell.SkipInstr > 0 {
			if win.Start, err = s.checkpointFor(cell, prog); err != nil {
				return nil, err
			}
		}
		if s.opt.PreRun != nil {
			win.PreRun = func(p *core.Processor) { s.opt.PreRun(p, cfg, src) }
		}
		telFile, err := s.telemetryFile(cfg, src)
		if err != nil {
			return nil, err
		}
		if telFile != nil {
			win.Telemetry = telFile
		}
		ctx, cancel := s.runContext(cell, src)
		defer cancel()
		w, err := core.RunWindow(ctx, cfg, prog, win)
		if telFile != nil {
			terr := w.TelemetryErr
			if cerr := telFile.Close(); terr == nil {
				terr = cerr
			}
			if terr != nil && s.opt.Log != nil {
				fmt.Fprintf(s.opt.Log, "  telemetry %s on %s: %v\n", src.Name(), cfg.Name, terr)
			}
		}
		if err != nil {
			return nil, err
		}
		out = sample.OneWindow(w)
	}
	rec = &campaign.Record{
		Config:     cfg.Name,
		Bench:      src.Name(),
		Suite:      src.Suite().String(),
		Scale:      cell.Scale.String(),
		MaxInstr:   cell.MaxInstr,
		MaxCycles:  cell.MaxCycles,
		SkipInstr:  cell.SkipInstr,
		Workload:   cell.Workload,
		WorkloadID: cell.WorkloadID,

		IPC:     out.MeanIPC,
		Stats:   out.Stats,
		DL1Miss: out.DL1Miss,
		L2Local: out.L2Local,
		BrAcc:   out.BrAcc,

		Sampling:     cell.Sampling,
		Intervals:    len(out.IntervalIPCs),
		IPCStdDev:    out.IPCStdDev,
		IPCCI95:      out.IPCCI95,
		IntervalIPCs: out.IntervalIPCs,
	}
	if s.opt.Log != nil && rec.Sampling != nil {
		fmt.Fprintf(s.opt.Log, "  ran %-10s on %-16s IPC=%.3f ±%.3f (%d intervals) dl1=%.3f l2=%.3f\n",
			src.Name(), cfg.Name, rec.IPC, rec.IPCCI95, rec.Intervals, rec.DL1Miss, rec.L2Local)
	} else if s.opt.Log != nil {
		fmt.Fprintf(s.opt.Log, "  ran %-10s on %-16s IPC=%.3f cycles=%d dl1=%.3f l2=%.3f\n",
			src.Name(), cfg.Name, rec.IPC, rec.Stats.Cycles, rec.DL1Miss, rec.L2Local)
	}
	return rec, nil
}

// programKey names a program in the session's tables: one per workload
// content and scale.
func programKey(src workload.Source, scale workload.Scale) string {
	return src.Identity() + "/" + scale.String()
}

// runContext derives one cell's simulation context from the session's:
// labelled with the workload, so a structured failure names what it ran,
// and bounded by RunDeadline when one is set.
func (s *Session) runContext(cell campaign.Cell, src workload.Source) (context.Context, context.CancelFunc) {
	ctx := s.opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ctx = core.WithLabels(ctx, src.Name(), cell.Scale.String())
	if s.opt.RunDeadline > 0 {
		return context.WithTimeout(ctx, s.opt.RunDeadline)
	}
	return ctx, func() {}
}

// checkpointFor resolves (building at most once per key, campaign-wide)
// the functional fast-forward checkpoint a cell starts from.
func (s *Session) checkpointFor(cell campaign.Cell, prog *isa.Program) (*emu.Checkpoint, error) {
	key := campaign.CheckpointKey{Bench: cell.Bench, Scale: cell.Scale, Skip: cell.SkipInstr, Workload: cell.WorkloadID}
	return s.ckpts.Get(key, func() (*emu.Checkpoint, error) {
		return emu.BuildCheckpoint(prog, cell.SkipInstr)
	})
}

// telemetryFile creates the cell's JSONL sample file when TelemetryDir is
// set (nil when telemetry is off). The caller closes it after the run.
func (s *Session) telemetryFile(cfg core.Config, src workload.Source) (*os.File, error) {
	if s.opt.TelemetryDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(s.opt.TelemetryDir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: telemetry dir: %w", err)
	}
	f, err := os.Create(filepath.Join(s.opt.TelemetryDir, CellFileName(cfg.Name, src.Name(), ".jsonl")))
	if err != nil {
		return nil, fmt.Errorf("harness: telemetry file: %w", err)
	}
	return f, nil
}

// CellFileName names a per-cell artifact (a telemetry series, a crash
// dump) <config>-<bench><ext>, with the '/' and ' ' of configuration
// names made safe for a file name.
func CellFileName(config, bench, ext string) string {
	return strings.Map(func(r rune) rune {
		if r == '/' || r == ' ' {
			return '_'
		}
		return r
	}, config+"-"+bench) + ext
}

// Transient is the harness's retry classifier: wall-clock deadline hits
// on a loaded machine are worth re-execution, simulator bugs never are,
// and neither is a deliberate cancellation — a cancelled campaign must
// stop, not retry cells against a context that stays cancelled.
func Transient(err error) bool {
	if errors.Is(err, context.Canceled) {
		return false
	}
	var se *core.SimError
	return errors.As(err, &se) && se.Transient
}

// RunAll simulates every selected benchmark under cfg and returns the
// successful results keyed by benchmark name. The cells are primed in
// table order, so the engine's pool runs them concurrently and starts
// them in that order; RunAll then waits on each in turn. Failed cells do
// NOT abort the sweep: the remaining benchmarks still run, and the
// returned error joins every failure (in table order) so callers see all
// of them at once. Failed cells are also recorded by the engine — see
// Failures and FailureSummary.
func (s *Session) RunAll(cfg core.Config) (map[string]*campaign.Record, error) {
	srcs, err := s.benchmarks()
	if err != nil {
		return nil, err
	}
	cells := make([]campaign.Cell, len(srcs))
	for i, src := range srcs {
		cells[i] = s.cell(cfg, src)
	}
	s.eng.Prime(cells)
	out := make(map[string]*campaign.Record, len(srcs))
	var errs []error
	for _, src := range srcs {
		r, err := s.Run(cfg, src)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out[resultKey(src)] = r
	}
	return out, errors.Join(errs...)
}

// Failures returns the engine's failed cells so far, ordered by
// (config, benchmark).
func (s *Session) Failures() []campaign.Failure {
	out := s.eng.Failures()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Cell, out[j].Cell
		if a.Config.Name != b.Config.Name {
			return a.Config.Name < b.Config.Name
		}
		return a.Bench < b.Bench
	})
	return out
}

// FailureSummary renders the session's failed cells as a table (empty
// string when every run succeeded). Experiment drivers print it after a
// sweep so partial results are never mistaken for complete ones.
func (s *Session) FailureSummary() string {
	fails := s.Failures()
	if len(fails) == 0 {
		return ""
	}
	t := &stats.Table{
		Title:   "Failed runs",
		Headers: []string{"Config", "Benchmark", "Kind", "Cycle", "Error"},
	}
	for _, f := range fails {
		kind, cycle := "-", "-"
		var se *core.SimError
		if errors.As(f.Err, &se) {
			kind = string(se.Kind)
			cycle = fmt.Sprintf("%d", se.Cycle)
		}
		msg := f.Err.Error()
		if len(msg) > 72 {
			msg = msg[:69] + "..."
		}
		t.AddRow(f.Cell.Config.Name, f.Cell.Bench, kind, cycle, msg)
	}
	t.AddNote("%d of the sweep's cells failed; metrics above exclude them", len(fails))
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

var suites = []workload.Suite{workload.SuiteInt, workload.SuiteFP, workload.SuiteOlden}

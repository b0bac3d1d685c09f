package campaign

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"largewindow/internal/flight"
)

// ExecFunc executes one cell and returns its record. The engine provides
// panic isolation and transient-retry around it; implementations (the
// harness) provide the actual simulation.
type ExecFunc func(Cell) (*Record, error)

// Options configures an engine.
type Options struct {
	// Workers bounds the concurrent executions (<=0: GOMAXPROCS).
	Workers int
	// Store, when non-nil, receives every executed record. Failures are
	// never persisted: a failed cell re-executes on the next campaign.
	Store *Store
	// Resume enables read-through: a cell whose record is already in the
	// store is served from disk without executing. Without Resume the
	// store is write-only — a fresh campaign overwrites old records.
	Resume bool
	// Retry is the cell re-execution policy (budget, backoff, jitter) and
	// its classifier of errors worth retrying (wall-clock deadlines on a
	// loaded machine; never simulator bugs). The zero value retries
	// nothing; a policy carrying only IsTransient retries transient
	// failures once, immediately.
	Retry RetryPolicy
	// Log receives retry and cache-corruption lines (nil = quiet).
	Log io.Writer
	// Checkpoints, when non-nil, is the campaign's shared functional-
	// checkpoint cache. The engine itself never builds checkpoints (the
	// executor does, through Checkpoints.Get); attaching it here surfaces
	// built/reused counts in Snapshot, Summary, and the progress line.
	Checkpoints *Checkpoints
}

// job is one queued cell: what to execute and the single-flight slot
// (Engine.cells) its record resolves.
type job struct {
	cell Cell
	id   string
	slot *flight.Slot[*Record]
}

// Engine executes cells across a bounded worker pool with per-worker
// panic isolation and a persistent result cache. Exactly one resolution
// (cache hit or execution) happens per cell ID per engine, and every Run
// of the same cell receives the same *Record pointer. The pool drains one
// FIFO queue, so a primed manifest executes in manifest order. Workers
// spawn on demand when cells are queued and exit when the queue drains,
// so an idle engine holds no goroutines and needs no Close.
type Engine struct {
	exec  ExecFunc
	opt   Options
	cells flight.Memo[*Record]

	// One mutex is enough: a cell is milliseconds of simulation, so the
	// queue is touched a few hundred times a second at most.
	mu      sync.Mutex
	queue   []job // pending cells, oldest first
	workers int   // live workers, at most opt.Workers

	total     atomic.Uint64 // cells submitted (single-flight entries)
	completed atomic.Uint64 // cells finished (any path)
	executed  atomic.Uint64 // cells that actually simulated
	cacheHits atomic.Uint64 // cells served from the store
	failed    atomic.Uint64 // cells finished with an error
	retries   atomic.Uint64 // transient retries performed
	instrs    atomic.Uint64 // instructions committed by executed cells

	// Sampled-simulation interval counters, fed by the executor through
	// AddPlannedIntervals/IntervalDone. Nonzero planned switches the
	// progress line from instrs/s (misleading for sampled cells, whose
	// committed count covers only the measured windows) to interval k/N.
	intervalsDone    atomic.Uint64
	intervalsPlanned atomic.Uint64

	// Model-pruned exploration counters, fed by the explore driver:
	// cells the interval model predicted instead of simulating, and the
	// audit subset of those simulated anyway to measure live model error.
	modelPruned  atomic.Uint64
	modelAudited atomic.Uint64

	start time.Time
}

// NewEngine builds an engine around an executor.
func NewEngine(exec ExecFunc, opt Options) *Engine {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{exec: exec, opt: opt, start: time.Now()}
}

// AddModelPruned registers n sweep cells the interval model answered in
// place of the detailed core during a model-pruned exploration.
func (e *Engine) AddModelPruned(n uint64) { e.modelPruned.Add(n) }

// AddModelAudited registers n pruned-then-simulated audit cells — the
// slice a model-pruned exploration executes anyway to measure live
// prediction error.
func (e *Engine) AddModelAudited(n uint64) { e.modelAudited.Add(n) }

// AddPlannedIntervals registers n upcoming measured intervals of a
// sampled cell starting execution.
func (e *Engine) AddPlannedIntervals(n uint64) { e.intervalsPlanned.Add(n) }

// IntervalDone marks one measured interval of a sampled cell complete.
func (e *Engine) IntervalDone() { e.intervalsDone.Add(1) }

// Workers returns the pool bound.
func (e *Engine) Workers() int { return e.opt.Workers }

// Run resolves one cell, blocking until its record is available: from a
// previous Run of the same cell, from the persistent store (Resume), or
// by executing it on the worker pool. Concurrent Runs of the same cell
// share one resolution and one *Record.
func (e *Engine) Run(cell Cell) (*Record, error) {
	return e.submit(cell).Wait()
}

// Prime submits cells without waiting: the pool starts on the manifest
// immediately and works through it in the order given, while the caller
// renders tables in its own order, waiting only on the cells each table
// needs.
func (e *Engine) Prime(cells []Cell) {
	for _, c := range cells {
		e.submit(c)
	}
}

// Wait blocks until every submitted cell has finished.
func (e *Engine) Wait() {
	for e.completed.Load() < e.total.Load() {
		time.Sleep(10 * time.Millisecond)
	}
}

// submit returns the single-flight slot for a cell, resolving it (cache
// probe, then enqueue) on first sight.
func (e *Engine) submit(cell Cell) *flight.Slot[*Record] {
	id := cell.ID()
	slot, first := e.cells.Claim(id)
	if !first {
		return slot
	}
	e.total.Add(1)
	if e.opt.Resume && e.opt.Store != nil {
		rec, err := e.opt.Store.Get(id)
		if err != nil && e.opt.Log != nil {
			fmt.Fprintf(e.opt.Log, "  cache entry %s unusable, re-running: %v\n", id, err)
		}
		if rec != nil && err == nil {
			e.cacheHits.Add(1)
			e.finish(slot, rec, nil)
			return slot
		}
	}
	e.enqueue(job{cell: cell, id: id, slot: slot})
	return slot
}

// enqueue appends a cell to the queue and starts a worker for it unless
// the pool is already at its bound.
func (e *Engine) enqueue(j job) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queue = append(e.queue, j)
	if e.workers < e.opt.Workers {
		e.workers++
		go e.worker()
	}
}

// worker runs queued cells oldest first and exits when the queue is dry.
// It gives up its slot under the lock that guards the queue, so an
// enqueue either lands before the emptiness check (and this worker takes
// the cell) or after the decrement (and the enqueuer spawns a worker):
// no cell is ever left queued with nobody to run it.
func (e *Engine) worker() {
	for {
		e.mu.Lock()
		if len(e.queue) == 0 {
			e.workers--
			e.mu.Unlock()
			return
		}
		j := e.queue[0]
		e.queue[0] = job{} // the backing array must not pin a finished cell
		e.queue = e.queue[1:]
		e.mu.Unlock()
		e.runCell(j)
	}
}

// runCell executes one claimed cell with panic isolation and the
// engine's retry policy, persists the record, and releases waiters.
func (e *Engine) runCell(j job) {
	rec, err := e.execIsolated(j.cell)
	for failures := 1; e.opt.Retry.Retryable(failures, err); failures++ {
		e.retries.Add(1)
		if e.opt.Log != nil {
			fmt.Fprintf(e.opt.Log, "  RETRY %s on %s (attempt %d): %v\n",
				j.cell.Bench, j.cell.Config.Name, failures+1, err)
		}
		if d := e.opt.Retry.Backoff(failures); d > 0 {
			time.Sleep(d)
		}
		rec, err = e.execIsolated(j.cell)
	}
	e.executed.Add(1)
	if err != nil {
		e.failed.Add(1)
		e.finish(j.slot, nil, err)
		return
	}
	rec.CellID = j.id
	e.instrs.Add(rec.Stats.Committed)
	if e.opt.Store != nil {
		if perr := e.opt.Store.Put(rec); perr != nil && e.opt.Log != nil {
			fmt.Fprintf(e.opt.Log, "  persisting %s: %v\n", j.cell, perr)
		}
	}
	e.finish(j.slot, rec, nil)
}

// execIsolated shields the pool from a panicking executor: one corrupted
// cell yields an error on that cell, never a dead worker (and with it a
// campaign that hangs forever on an unresolved slot).
func (e *Engine) execIsolated(c Cell) (rec *Record, err error) {
	defer func() {
		if r := recover(); r != nil {
			rec, err = nil, fmt.Errorf("campaign: panic executing %s: %v\n%s", c, r, debug.Stack())
		}
	}()
	return e.exec(c)
}

func (e *Engine) finish(slot *flight.Slot[*Record], rec *Record, err error) {
	e.completed.Add(1)
	slot.Resolve(rec, err)
}

// Snapshot is a point-in-time view of campaign progress.
type Snapshot struct {
	Total     uint64
	Done      uint64
	Executed  uint64
	CacheHits uint64
	Failed    uint64
	Retries   uint64
	Instrs    uint64
	Elapsed   time.Duration

	// Checkpoint-cache activity (zero unless Options.Checkpoints was
	// attached and some cell asked for a skip window).
	CkptBuilt  uint64 // functional fast-forward passes executed
	CkptReused uint64 // checkpoint requests served from cache

	// Sampled-simulation interval progress (zero unless the campaign ran
	// sampled cells).
	IntervalsDone    uint64
	IntervalsPlanned uint64

	// Model-pruned exploration progress (zero unless a model-guided sweep
	// is running).
	ModelPruned  uint64
	ModelAudited uint64
}

// Snapshot reads the engine's progress counters.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{
		Total:     e.total.Load(),
		Done:      e.completed.Load(),
		Executed:  e.executed.Load(),
		CacheHits: e.cacheHits.Load(),
		Failed:    e.failed.Load(),
		Retries:   e.retries.Load(),
		Instrs:    e.instrs.Load(),
		Elapsed:   time.Since(e.start),

		IntervalsDone:    e.intervalsDone.Load(),
		IntervalsPlanned: e.intervalsPlanned.Load(),
		ModelPruned:      e.modelPruned.Load(),
		ModelAudited:     e.modelAudited.Load(),
	}
	if e.opt.Checkpoints != nil {
		s.CkptBuilt, s.CkptReused = e.opt.Checkpoints.Counts()
	}
	return s
}

// Summary renders a one-line campaign outcome for the CLI: the resume
// gate greps the "N executed" figure to prove a warm cache recomputes
// nothing, and the checkpoint gate greps "N built / M reused" to prove
// one functional pass served every configuration.
func (s Snapshot) Summary() string {
	out := fmt.Sprintf("campaign: %d cells — %d executed, %d cached, %d failed in %s",
		s.Done, s.Executed, s.CacheHits, s.Failed, s.Elapsed.Round(time.Millisecond))
	if s.Retries > 0 {
		out += fmt.Sprintf(", %d retried", s.Retries)
	}
	if s.CkptBuilt+s.CkptReused > 0 {
		out += fmt.Sprintf(", checkpoints: %d built / %d reused", s.CkptBuilt, s.CkptReused)
	}
	if s.ModelPruned > 0 {
		out += fmt.Sprintf(", model: %d pruned / %d audited", s.ModelPruned, s.ModelAudited)
	}
	return out
}

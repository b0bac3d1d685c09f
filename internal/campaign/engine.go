package campaign

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"largewindow/internal/telemetry"
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
	// IsTransient, when non-nil, classifies errors worth retrying
	// (wall-clock deadlines on a loaded machine; never simulator bugs).
	// It is shorthand for Retry.IsTransient and is used only when the
	// Retry policy carries no classifier of its own.
	IsTransient func(error) bool
	// Retry is the cell re-execution policy (budget, backoff, jitter).
	// The zero value preserves the engine's historical behavior: one
	// immediate retry of transient failures.
	Retry RetryPolicy
	// Log receives retry and cache-corruption lines (nil = quiet).
	Log io.Writer
	// Checkpoints, when non-nil, is the campaign's shared functional-
	// checkpoint cache. The engine itself never builds checkpoints (the
	// executor does, through Checkpoints.Get); attaching it here surfaces
	// built/reused counts in Snapshot, Summary, and the progress line.
	Checkpoints *Checkpoints
}

// cellState is the single-flight slot for one cell: exactly one
// resolution (cache hit or execution) happens per ID per engine, and
// every Run call for the same cell blocks on the same done channel and
// receives the same *Record pointer.
type cellState struct {
	cell Cell
	id   string
	done chan struct{}
	rec  *Record
	err  error
}

// shard is one lock-striped slice of the pending-work queue. Cells land
// on the shard their ID hashes to; each worker drains a home shard and
// steals from the others when its own runs dry, so an uneven manifest
// (one config's cells all expensive) still keeps every worker busy.
type shard struct {
	mu sync.Mutex
	q  []*cellState
}

// Engine executes cells across a bounded work-stealing worker pool with
// per-worker panic isolation and a persistent result cache. Workers are
// work-conserving: they spawn on demand when cells are queued and exit
// when the queue drains, so an idle engine holds no goroutines and needs
// no Close.
type Engine struct {
	exec   ExecFunc
	opt    Options
	reg    *telemetry.Registry
	shards []shard

	mu    sync.Mutex
	cells map[string]*cellState

	active  atomic.Int32 // live workers
	queued  atomic.Int64 // enqueued, unclaimed cells
	spawned atomic.Int64 // worker spawn counter (home-shard assignment)

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
	if opt.Retry.IsTransient == nil {
		opt.Retry.IsTransient = opt.IsTransient
	}
	e := &Engine{
		exec:   exec,
		opt:    opt,
		reg:    telemetry.NewRegistry(),
		shards: make([]shard, opt.Workers),
		cells:  make(map[string]*cellState),
		start:  time.Now(),
	}
	e.reg.CounterFunc("campaign.cells.total", e.total.Load)
	e.reg.CounterFunc("campaign.cells.done", e.completed.Load)
	e.reg.CounterFunc("campaign.cells.executed", e.executed.Load)
	e.reg.CounterFunc("campaign.cells.cache_hits", e.cacheHits.Load)
	e.reg.CounterFunc("campaign.cells.failed", e.failed.Load)
	e.reg.CounterFunc("campaign.cells.retries", e.retries.Load)
	e.reg.CounterFunc("campaign.instrs", e.instrs.Load)
	e.reg.CounterFunc("campaign.intervals.done", e.intervalsDone.Load)
	e.reg.CounterFunc("campaign.intervals.planned", e.intervalsPlanned.Load)
	e.reg.CounterFunc("campaign.cells.model_pruned", e.modelPruned.Load)
	e.reg.CounterFunc("campaign.cells.model_audited", e.modelAudited.Load)
	return e
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

// Registry exposes the engine's metrics (cells done/total, aggregate
// instruction throughput) for progress rendering and telemetry sampling.
func (e *Engine) Registry() *telemetry.Registry { return e.reg }

// Workers returns the pool bound.
func (e *Engine) Workers() int { return e.opt.Workers }

// Run resolves one cell, blocking until its record is available: from a
// previous Run of the same cell, from the persistent store (Resume), or
// by executing it on the worker pool. Concurrent Runs of the same cell
// share one resolution and one *Record.
func (e *Engine) Run(cell Cell) (*Record, error) {
	st := e.state(cell)
	<-st.done
	return st.rec, st.err
}

// Prime submits cells without waiting: the pool starts crunching the
// whole manifest immediately while the caller renders tables in its own
// order, waiting only on the cells each table needs.
func (e *Engine) Prime(cells []Cell) {
	for _, c := range cells {
		e.state(c)
	}
}

// Wait blocks until every submitted cell has finished.
func (e *Engine) Wait() {
	for e.completed.Load() < e.total.Load() {
		time.Sleep(10 * time.Millisecond)
	}
}

// state returns the single-flight slot for a cell, creating and
// resolving it (cache probe, then enqueue) on first sight.
func (e *Engine) state(cell Cell) *cellState {
	id := cell.ID()
	e.mu.Lock()
	st, ok := e.cells[id]
	if !ok {
		st = &cellState{cell: cell, id: id, done: make(chan struct{})}
		e.cells[id] = st
	}
	e.mu.Unlock()
	if ok {
		return st
	}
	e.total.Add(1)
	if e.opt.Resume && e.opt.Store != nil {
		rec, err := e.opt.Store.Get(id)
		if err != nil && e.opt.Log != nil {
			fmt.Fprintf(e.opt.Log, "  cache entry %s unusable, re-running: %v\n", id, err)
		}
		if rec != nil && err == nil {
			e.cacheHits.Add(1)
			e.finish(st, rec, nil)
			return st
		}
	}
	e.enqueue(st)
	return st
}

// enqueue pushes a cell onto its home shard and ensures a worker exists
// to claim it.
func (e *Engine) enqueue(st *cellState) {
	sh := &e.shards[e.shardIndex(st.id)]
	sh.mu.Lock()
	sh.q = append(sh.q, st)
	sh.mu.Unlock()
	e.queued.Add(1)
	e.maybeSpawn()
}

func (e *Engine) shardIndex(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32()) % len(e.shards)
}

// maybeSpawn starts a worker unless the pool is already at its bound.
func (e *Engine) maybeSpawn() {
	for {
		n := e.active.Load()
		if int(n) >= e.opt.Workers {
			return
		}
		if e.active.CompareAndSwap(n, n+1) {
			home := int(e.spawned.Add(1)-1) % len(e.shards)
			go e.worker(home)
			return
		}
	}
}

// worker drains its home shard, steals from the others, and exits when
// the whole queue is dry. The post-decrement recheck closes the race
// where a cell is enqueued just as the last worker goes idle: either
// this worker reacquires its slot and continues, or the enqueuer's
// maybeSpawn (or another full-pool worker's next scan) picks the cell up.
func (e *Engine) worker(home int) {
	for {
		st := e.claim(home)
		if st == nil {
			e.active.Add(-1)
			if e.queued.Load() == 0 || !e.reacquire() {
				return
			}
			continue
		}
		e.runCell(st)
	}
}

// claim pops from the home shard, then scans the other shards in order.
func (e *Engine) claim(home int) *cellState {
	n := len(e.shards)
	for i := 0; i < n; i++ {
		sh := &e.shards[(home+i)%n]
		sh.mu.Lock()
		var st *cellState
		if k := len(sh.q); k > 0 {
			st = sh.q[k-1]
			sh.q[k-1] = nil
			sh.q = sh.q[:k-1]
		}
		sh.mu.Unlock()
		if st != nil {
			e.queued.Add(-1)
			return st
		}
	}
	return nil
}

func (e *Engine) reacquire() bool {
	for {
		n := e.active.Load()
		if int(n) >= e.opt.Workers {
			return false
		}
		if e.active.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// runCell executes one claimed cell with panic isolation and the
// engine's retry policy, persists the record, and releases waiters.
func (e *Engine) runCell(st *cellState) {
	rec, err := e.execIsolated(st.cell)
	for failures := 1; e.opt.Retry.Retryable(failures, err); failures++ {
		e.retries.Add(1)
		if e.opt.Log != nil {
			fmt.Fprintf(e.opt.Log, "  RETRY %s on %s (attempt %d): %v\n",
				st.cell.Bench, st.cell.Config.Name, failures+1, err)
		}
		if d := e.opt.Retry.Backoff(failures); d > 0 {
			time.Sleep(d)
		}
		rec, err = e.execIsolated(st.cell)
	}
	e.executed.Add(1)
	if err != nil {
		e.failed.Add(1)
		e.finish(st, nil, err)
		return
	}
	rec.CellID = st.id
	e.instrs.Add(rec.Stats.Committed)
	if e.opt.Store != nil {
		if perr := e.opt.Store.Put(rec); perr != nil && e.opt.Log != nil {
			fmt.Fprintf(e.opt.Log, "  persisting %s: %v\n", st.cell, perr)
		}
	}
	e.finish(st, rec, nil)
}

// execIsolated shields the pool from a panicking executor: one corrupted
// cell yields an error on that cell, never a dead worker (and with it a
// campaign that hangs forever on an unresolved cellState).
func (e *Engine) execIsolated(c Cell) (rec *Record, err error) {
	defer func() {
		if r := recover(); r != nil {
			rec, err = nil, fmt.Errorf("campaign: panic executing %s: %v\n%s", c, r, debug.Stack())
		}
	}()
	return e.exec(c)
}

func (e *Engine) finish(st *cellState, rec *Record, err error) {
	st.rec, st.err = rec, err
	e.completed.Add(1)
	close(st.done)
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

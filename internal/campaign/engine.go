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
	"largewindow/internal/obs"
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
	// Log receives RETRY, FAIL and cache-corruption lines (nil = quiet).
	Log io.Writer
}

// job is one queued cell: what to execute and the single-flight slot
// (Engine.cells) its record resolves.
type job struct {
	cell Cell
	id   string
	slot *flight.Slot[*Record]
}

// Failure is a cell that finished with an error, after its retries.
type Failure struct {
	Cell Cell
	Err  error
}

// Engine executes cells across a bounded worker pool with per-worker
// panic isolation and a persistent result cache. Exactly one resolution
// (cache hit or execution) happens per cell ID per engine, and every Run
// of the same cell receives the same *Record pointer. The pool drains one
// FIFO queue, so primed cells execute in the order they were primed.
// Workers spawn on demand when cells are queued and exit when the queue
// drains, so an idle engine holds no goroutines and needs no Close.
type Engine struct {
	exec  ExecFunc
	opt   Options
	cells flight.Memo[*Record]

	// One mutex is enough: a cell is milliseconds of simulation, so the
	// queue and the failure list are touched a few hundred times a second
	// at most.
	mu       sync.Mutex
	queue    []job     // pending cells, oldest first
	workers  int       // live workers, at most opt.Workers
	failures []Failure // failed cells, in the order they finished

	total     atomic.Uint64 // cells submitted (single-flight entries)
	completed atomic.Uint64 // cells finished (any path)
	cacheHits atomic.Uint64 // cells served from the store
	retries   atomic.Uint64 // transient retries performed
	instrs    atomic.Uint64 // instructions committed by executed cells

	start time.Time
}

// NewEngine builds an engine around an executor.
func NewEngine(exec ExecFunc, opt Options) *Engine {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{exec: exec, opt: opt, start: time.Now()}
}

// Workers returns the pool bound.
func (e *Engine) Workers() int { return e.opt.Workers }

// Run resolves one cell, blocking until its record is available: from a
// previous Run of the same cell, from the persistent store (Resume), or
// by executing it on the worker pool. Concurrent Runs of the same cell
// share one resolution and one *Record.
func (e *Engine) Run(cell Cell) (*Record, error) {
	slot, _ := e.submit(cell)
	return slot.Wait()
}

// Prime submits cells without waiting: the pool starts on them
// immediately and works through them in the order given, while the caller
// renders tables, waiting only on the cells each table needs. It returns
// how many cells were new to the engine; a repeat (or a cell submitted
// before) is dropped.
func (e *Engine) Prime(cells []Cell) int {
	n := 0
	for _, c := range cells {
		if _, first := e.submit(c); first {
			n++
		}
	}
	return n
}

// Wait blocks until every submitted cell has finished.
func (e *Engine) Wait() {
	for e.completed.Load() < e.total.Load() {
		time.Sleep(10 * time.Millisecond)
	}
}

// submit returns the single-flight slot for a cell, resolving it (cache
// probe, then enqueue) on first sight; first reports that this call did.
func (e *Engine) submit(cell Cell) (slot *flight.Slot[*Record], first bool) {
	id := cell.ID()
	slot, first = e.cells.Claim(id)
	if !first {
		return slot, false
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
			return slot, true
		}
	}
	e.enqueue(job{cell: cell, id: id, slot: slot})
	return slot, true
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
// engine's retry policy, persists the record (or records the failure),
// and releases waiters.
func (e *Engine) runCell(j job) {
	rec, err := e.execIsolated(j.cell)
	for failures := 1; e.opt.Retry.Retryable(failures, err); failures++ {
		e.retries.Add(1)
		if e.opt.Log != nil {
			fmt.Fprintf(e.opt.Log, "  RETRY %s on %s (attempt %d): %v\n",
				j.cell.label(), j.cell.Config.Name, failures+1, err)
		}
		if d := e.opt.Retry.Backoff(failures); d > 0 {
			time.Sleep(d)
		}
		rec, err = e.execIsolated(j.cell)
	}
	if err != nil {
		if e.opt.Log != nil {
			fmt.Fprintf(e.opt.Log, "  FAIL %-10s on %-16s %v\n", j.cell.label(), j.cell.Config.Name, err)
		}
		e.mu.Lock()
		e.failures = append(e.failures, Failure{Cell: j.cell, Err: err})
		e.mu.Unlock()
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

// Failures returns the cells that have failed so far, in the order they
// finished. A failed cell is listed once, however many callers ran it.
func (e *Engine) Failures() []Failure {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Failure(nil), e.failures...)
}

// Snapshot is a point-in-time view of campaign progress.
type Snapshot struct {
	Total     uint64
	Done      uint64
	Executed  uint64 // finished cells that ran: Done less CacheHits
	CacheHits uint64
	Failed    uint64
	Retries   uint64
	Instrs    uint64
	Elapsed   time.Duration

	// What the engine's executor keeps, not the engine: a harness
	// session adds its own counts (Session.Snapshot). Zero on the
	// engine's snapshot.
	CkptBuilt    uint64       // functional fast-forward passes executed
	CkptReused   uint64       // checkpoint requests served from cache
	InFlight     obs.InFlight // sampled cells in flight, by their intervals
	ModelPruned  uint64       // cells the interval model answered
	ModelAudited uint64       // pruned cells simulated anyway
}

// Snapshot reads the engine's progress counters. Every finished cell is
// a store hit or ran, so Executed is what finished less the hits (a hit
// is counted just before it finishes, so min keeps one caught in between
// from wrapping the difference).
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	failed := len(e.failures)
	e.mu.Unlock()
	hits := e.cacheHits.Load()
	done := e.completed.Load()
	return Snapshot{
		Total:     e.total.Load(),
		Done:      done,
		Executed:  done - min(hits, done),
		CacheHits: hits,
		Failed:    uint64(failed),
		Retries:   e.retries.Load(),
		Instrs:    e.instrs.Load(),
		Elapsed:   time.Since(e.start),
	}
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

// Progress converts the snapshot to the status obs.Progress.Line renders,
// its ETA by obs.Progress.ETA's rule with the in-flight cells' credit.
// expected is the manifest size when known ahead of submission (0: the
// engine's total so far). The engine's Done counts every finished cell,
// where obs.Progress counts a failed one apart from Done; Snapshot reads
// Failed first, so a failure finishing between the two reads is in Failed
// alone and Done must not go below 0.
func (s Snapshot) Progress(expected uint64) *obs.Progress {
	p := &obs.Progress{Submitted: max(s.Total, expected), Done: s.Done - min(s.Failed, s.Done), Failed: s.Failed,
		CacheHits: s.CacheHits, Retries: s.Retries, Instrs: s.Instrs, ElapsedSec: s.Elapsed.Seconds(),
		InstrsPerSec:  obs.SaneRate(float64(s.Instrs), s.Elapsed.Seconds()),
		IntervalsDone: s.InFlight.Done, IntervalsPlanned: s.InFlight.Planned,
		ModelPruned: s.ModelPruned, ModelAudited: s.ModelAudited, CkptBuilt: s.CkptBuilt, CkptReused: s.CkptReused}
	p.ETASec = p.ETA(s.InFlight.Credit())
	return p
}

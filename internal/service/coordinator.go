package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/obs"
	"largewindow/internal/schema"
	"largewindow/internal/telemetry"
)

// CoordinatorOptions configures a campaign coordinator.
type CoordinatorOptions struct {
	// Store, when non-nil, is the shared content-addressed record store:
	// every completed cell persists there (atomically; failures never),
	// and with Resume submitted cells already present are served from
	// disk without dispatching.
	Store  *campaign.Store
	Resume bool
	// QueueCap bounds the pending queue (<= 0: 4096). Submissions that
	// would overflow it are rejected with 429 + Retry-After — the
	// backpressure contract clients must honor.
	QueueCap int
	// LeaseTTL is how long a dispatched cell may go without a heartbeat
	// before it returns to the queue (<= 0: 30s).
	LeaseTTL time.Duration
	// Retry governs re-dispatch of cells whose workers report a
	// transient failure: budget via MaxAttempts, cool-down via
	// BaseDelay/MaxDelay/Jitter. (Classification happens worker-side and
	// rides the wire; the policy's own IsTransient is not consulted.)
	Retry campaign.RetryPolicy
	// MaxRequeues bounds how many times one cell may be returned to the
	// queue by lease expiry before it fails permanently (<= 0: 5) — the
	// poison-cell guard: a cell that kills every worker it touches must
	// not eat the fleet forever.
	MaxRequeues int
	// Log receives dispatch, expiry, and rejection records with
	// structured cell/lease/worker/correlation IDs (nil = quiet).
	// Routine lifecycle traffic logs at Debug; failures at Warn.
	Log *slog.Logger

	// Events, when non-nil, receives every lifecycle event (submit,
	// lease, heartbeat, requeue, retry, complete, fail) plus periodic
	// progress snapshots, and is served to any number of SSE
	// subscribers at PathEvents. nil disables event streaming at zero
	// cost (one untaken branch per would-be event).
	Events *obs.Bus
	// Spans, when non-nil, records distributed cell-lifecycle spans
	// (queued, leased, persisting coordinator-side; attempt, executing
	// merged from workers' completions) for `wibtrace -fleet`. nil
	// disables span tracing at zero cost.
	Spans *obs.SpanLog
	// ProgressInterval paces progress events on the bus (<= 0: 1s);
	// ignored when Events is nil.
	ProgressInterval time.Duration
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.QueueCap <= 0 {
		o.QueueCap = 4096
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.MaxRequeues <= 0 {
		o.MaxRequeues = 5
	}
	if o.ProgressInterval <= 0 {
		o.ProgressInterval = time.Second
	}
	return o
}

// svcCell is the coordinator's state for one distinct cell. A finished
// cell keeps this struct alone — identity, verdict and the encoded
// record, which is what a result response needs — for as long as the
// coordinator lives; everything that matters only while the cell is
// queued or leased is in *inflight and is dropped with the verdict
// (DESIGN.md §10.6).
type svcCell struct {
	id       string
	status   string // StatusPending | StatusRunning | StatusDone | StatusFailed
	attempts int    // dispatches so far

	rec    encodedRecord // StatusDone: the record as complete() encoded it
	errMsg string        // StatusFailed

	*inflight // nil once done or failed
}

// inflight is a cell's scheduling state between submission and verdict.
type inflight struct {
	cell campaign.Cell
	corr string // campaign correlation ID (empty when tracing is off)

	failures int // transient failures reported by workers
	requeues int // lease expiries suffered

	notBefore time.Time // retry backoff: not dispatchable before this
	queuedAt  time.Time // start of the current queued span
	leasedAt  time.Time // start of the current leased span

	leaseID string
	expiry  time.Time
	worker  string

	// Sampled-cell interval progress reported by the holder's heartbeats
	// (done of planned measured windows); zero for detailed cells. Reset
	// on every fresh lease — a re-dispatched cell starts over.
	ivDone    uint64
	ivPlanned uint64

	done chan struct{} // closed on StatusDone / StatusFailed
}

// cellQueue is the pending queue, a ring indexed from head: taking the
// front cell or putting a requeued one back there moves nothing, and a
// vacated slot is cleared so the ring never keeps a dispatched cell
// reachable.
type cellQueue struct {
	buf  []*svcCell // len is zero or a power of two
	head int
	n    int
}

func (q *cellQueue) len() int { return q.n }

// slot is the i-th queued cell's place in the ring.
func (q *cellQueue) slot(i int) **svcCell { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// reserve makes room for one more cell.
func (q *cellQueue) reserve() {
	if q.n < len(q.buf) {
		return
	}
	buf := make([]*svcCell, max(16, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		buf[i] = *q.slot(i)
	}
	q.buf, q.head = buf, 0
}

func (q *cellQueue) pushBack(sc *svcCell) {
	q.reserve()
	q.n++
	*q.slot(q.n - 1) = sc
}

func (q *cellQueue) pushFront(sc *svcCell) {
	q.reserve()
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.n++
	*q.slot(0) = sc
}

// popReady removes and returns the first cell whose retry backoff has
// passed, keeping the order of the rest. The cells ahead of it — the ones
// still backing off, usually none — move up one slot to close the gap.
func (q *cellQueue) popReady(now time.Time) *svcCell {
	for i := 0; i < q.n; i++ {
		sc := *q.slot(i)
		if sc.notBefore.After(now) {
			continue
		}
		for j := i; j > 0; j-- {
			*q.slot(j) = *q.slot(j - 1)
		}
		*q.slot(0) = nil
		q.head = (q.head + 1) & (len(q.buf) - 1)
		q.n--
		return sc
	}
	return nil
}

// Coordinator schedules submitted cells onto leasing workers and owns
// the authoritative lifecycle of every cell: pending → running →
// done/failed, with lease-expiry requeue and transient-failure retry in
// between. All state is in memory except finished records, which live in
// the shared store — losing the coordinator loses only bookkeeping that
// resubmission rebuilds, never results.
type Coordinator struct {
	opt   CoordinatorOptions
	reg   *telemetry.Registry
	start time.Time
	// version is the newest protocol version this coordinator accepts:
	// schema.ServiceVersion, lowered only by the test that plays an old
	// coordinator against new peers.
	version int

	mu       sync.Mutex
	cells    map[string]*svcCell
	queue    cellQueue
	leases   map[string]*svcCell
	wake     chan struct{} // closed+replaced when work may be available
	draining bool

	submitted     atomic.Uint64
	completed     atomic.Uint64
	failed        atomic.Uint64
	cacheHits     atomic.Uint64
	retries       atomic.Uint64
	requeues      atomic.Uint64
	leaseExpiries atomic.Uint64
	rejected      atomic.Uint64
	instrs        atomic.Uint64 // simulated instructions across completions
	modelPruned   atomic.Uint64 // cells answered by the interval model, fleet-wide
	modelAudited  atomic.Uint64 // pruned cells simulated anyway to audit the model

	stopReaper   chan struct{}
	reaperDone   chan struct{}
	progressDone chan struct{} // nil unless the progress loop started
}

// NewCoordinator builds a coordinator and starts its lease reaper (and,
// when an event bus is attached, its progress broadcaster). Call Close
// (or Drain) when done.
func NewCoordinator(opt CoordinatorOptions) *Coordinator {
	c := &Coordinator{
		opt:        opt.withDefaults(),
		reg:        telemetry.NewRegistry(),
		start:      time.Now(),
		version:    schema.ServiceVersion,
		cells:      make(map[string]*svcCell),
		leases:     make(map[string]*svcCell),
		wake:       make(chan struct{}),
		stopReaper: make(chan struct{}),
		reaperDone: make(chan struct{}),
	}
	c.reg.CounterFunc("service.cells.submitted", c.submitted.Load)
	c.reg.CounterFunc("service.cells.completed", c.completed.Load)
	c.reg.CounterFunc("service.cells.failed", c.failed.Load)
	c.reg.CounterFunc("service.cells.cache_hits", c.cacheHits.Load)
	c.reg.CounterFunc("service.retries", c.retries.Load)
	c.reg.CounterFunc("service.requeues", c.requeues.Load)
	c.reg.CounterFunc("service.lease_expiries", c.leaseExpiries.Load)
	c.reg.CounterFunc("service.rejected", c.rejected.Load)
	c.reg.CounterFunc("service.instrs", c.instrs.Load)
	c.reg.CounterFunc("service.cells.model_pruned", c.modelPruned.Load)
	c.reg.CounterFunc("service.cells.model_audited", c.modelAudited.Load)
	c.reg.Gauge("service.queue.depth", func(int64) float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.queue.len())
	})
	c.reg.Gauge("service.active_leases", func(int64) float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.leases))
	})
	if c.opt.Events != nil {
		c.reg.CounterFunc("service.events.published", c.opt.Events.Published)
		c.reg.CounterFunc("service.events.dropped", c.opt.Events.Dropped)
		c.reg.Gauge("service.events.subscribers", func(int64) float64 {
			return float64(c.opt.Events.Subscribers())
		})
	}
	if c.opt.Spans != nil {
		c.reg.CounterFunc("service.spans.recorded", c.opt.Spans.Count)
	}
	go c.reaper()
	if c.opt.Events != nil {
		c.progressDone = make(chan struct{})
		go c.progressLoop()
	}
	return c
}

// Registry exposes the coordinator's telemetry counters (also served as
// Prometheus text at PathMetrics).
func (c *Coordinator) Registry() *telemetry.Registry { return c.reg }

// log emits one structured record when a logger is attached.
func (c *Coordinator) log(level slog.Level, msg string, args ...any) {
	if c.opt.Log != nil {
		c.opt.Log.Log(context.Background(), level, msg, args...)
	}
}

// publish offers one lifecycle event to the bus; a nil bus costs one
// untaken branch, keeping the disabled path free (the overhead gate in
// obs_overhead_test.go holds this to account).
func (c *Coordinator) publish(ev obs.Event) {
	if c.opt.Events == nil {
		return
	}
	c.opt.Events.Publish(ev)
}

// cellEvent builds the common event shape for one cell. Callers must
// hold mu or own the cell exclusively (completed cells are quiescent).
func cellEvent(typ string, sc *svcCell) obs.Event {
	return obs.Event{
		Type:    typ,
		CellID:  sc.id,
		Cell:    sc.cell.String(),
		CorrID:  sc.corr,
		Worker:  sc.worker,
		LeaseID: sc.leaseID,
		Attempt: sc.attempts,
	}
}

// span records one coordinator-side lifecycle span; nil log = free.
func (c *Coordinator) span(name string, sc *svcCell, start, end time.Time, note string) {
	if c.opt.Spans == nil {
		return
	}
	c.opt.Spans.Record(obs.Span{
		CorrID:  sc.corr,
		CellID:  sc.id,
		Cell:    sc.cell.String(),
		Name:    name,
		Src:     "coordinator",
		Attempt: sc.attempts,
		StartUS: start.UnixMicro(),
		EndUS:   end.UnixMicro(),
		Note:    note,
	})
}

// Close stops the reaper and progress broadcaster and flushes the span
// log. It does not wait for in-flight work; use Drain for a graceful
// shutdown.
func (c *Coordinator) Close() {
	select {
	case <-c.stopReaper:
	default:
		close(c.stopReaper)
	}
	<-c.reaperDone
	if c.progressDone != nil {
		<-c.progressDone
	}
	c.opt.Spans.Flush()
}

// Drain enters graceful shutdown: new submissions are refused (503), no
// further leases are issued (workers are told to exit), and the call
// blocks until every in-flight lease completes or ctx expires. Queued
// cells that never dispatched stay pending — they were never promised,
// and resubmission to a future coordinator re-dispatches them safely.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.broadcastLocked()
	c.mu.Unlock()
	c.publish(obs.Event{Type: obs.EventDrain})
	c.log(slog.LevelInfo, "coordinator draining", "leases_in_flight", c.activeLeases())
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		if c.activeLeases() == 0 {
			c.Close()
			return nil
		}
		select {
		case <-ctx.Done():
			c.Close()
			return fmt.Errorf("service: drain: %d leases still in flight: %w", c.activeLeases(), ctx.Err())
		case <-tick.C:
		}
	}
}

func (c *Coordinator) activeLeases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leases)
}

// broadcastLocked wakes every long-polling lease request. Callers hold mu.
func (c *Coordinator) broadcastLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// reaper returns expired leases to the queue: a worker that missed its
// heartbeat window is presumed dead, and because failures are never
// persisted and records are content-addressed, re-dispatching its cell
// is always safe.
func (c *Coordinator) reaper() {
	defer close(c.reaperDone)
	interval := c.opt.LeaseTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stopReaper:
			return
		case now := <-tick.C:
			c.reapExpired(now)
		}
	}
}

// progressLoop broadcasts periodic fleet snapshots on the event bus:
// cells done, aggregate simulated-instruction throughput, and an ETA —
// the stream `experiments -watch` renders live.
func (c *Coordinator) progressLoop() {
	defer close(c.progressDone)
	tick := time.NewTicker(c.opt.ProgressInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stopReaper:
			return
		case <-tick.C:
			c.publish(obs.Event{Type: obs.EventProgress, Progress: c.progress()})
		}
	}
}

// leaseCredit sums what the leased sampled cells last reported: intervals
// done and planned, and the fractional credit they add to the ETA — a
// cell 30/100 intervals in counts 0.3 done — so long-cell fleets don't
// sawtooth between completions. Credit is summed in 2^-32ths of a cell:
// integer addition commutes, so the lease map's iteration order cannot
// show in the result. The caller holds c.mu.
func (c *Coordinator) leaseCredit() (credit float64, ivDone, ivPlanned uint64) {
	const one = 1 << 32
	var fixed uint64
	for _, sc := range c.leases {
		if sc.ivPlanned == 0 {
			continue
		}
		ivDone += sc.ivDone
		ivPlanned += sc.ivPlanned
		fixed += min(sc.ivDone, sc.ivPlanned) * one / sc.ivPlanned
	}
	return float64(fixed) / one, ivDone, ivPlanned
}

// progress snapshots fleet progress with every rendered rate guarded
// against NaN/Inf/negative shapes (campaign start, zero counters).
func (c *Coordinator) progress() *obs.Progress {
	c.mu.Lock()
	depth, running := c.queue.len(), len(c.leases)
	frac, ivDone, ivPlanned := c.leaseCredit()
	c.mu.Unlock()
	elapsed := time.Since(c.start).Seconds()
	p := &obs.Progress{
		Submitted:        c.submitted.Load(),
		Done:             c.completed.Load(),
		Failed:           c.failed.Load(),
		Running:          running,
		QueueDepth:       depth,
		CacheHits:        c.cacheHits.Load(),
		Retries:          c.retries.Load(),
		Requeues:         c.requeues.Load(),
		Instrs:           c.instrs.Load(),
		ElapsedSec:       elapsed,
		IntervalsDone:    ivDone,
		IntervalsPlanned: ivPlanned,
		ModelPruned:      c.modelPruned.Load(),
		ModelAudited:     c.modelAudited.Load(),
	}
	p.InstrsPerSec = obs.SaneRate(float64(p.Instrs), elapsed)
	p.ETASec = obs.SaneETAFrac(float64(p.Done+p.Failed)+frac, p.Submitted, elapsed)
	return p
}

func (c *Coordinator) reapExpired(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, sc := range c.leases {
		if now.Before(sc.expiry) {
			continue
		}
		delete(c.leases, id)
		c.span(obs.SpanLeased, sc, sc.leasedAt, now, "lease expired")
		sc.leaseID = ""
		c.leaseExpiries.Add(1)
		c.log(slog.LevelWarn, "lease expired",
			"lease", id, "worker", sc.worker, "cell", sc.cell.String(),
			"cell_id", sc.id, "corr_id", sc.corr, "attempt", sc.attempts)
		sc.requeues++
		if sc.requeues > c.opt.MaxRequeues {
			c.failLocked(sc, fmt.Sprintf("lease expired %d times (poison cell or fleet-wide loss)", sc.requeues))
			continue
		}
		c.requeues.Add(1)
		sc.status = StatusPending
		sc.notBefore = time.Time{}
		sc.queuedAt = now
		c.publish(cellEvent(obs.EventRequeue, sc))
		// Front of the queue: a requeued cell has already waited its turn.
		c.queue.pushFront(sc)
		c.broadcastLocked()
	}
}

// finishLocked gives a cell its verdict: waiters are released and the
// scheduling state, which nothing reads past this point, is dropped.
// Callers hold mu.
func (c *Coordinator) finishLocked(sc *svcCell, status string) {
	sc.status = status
	close(sc.done)
	sc.inflight = nil
}

// failLocked finishes a cell permanently. Callers hold mu.
func (c *Coordinator) failLocked(sc *svcCell, msg string) {
	ev := cellEvent(obs.EventFail, sc)
	ev.Error = msg
	c.log(slog.LevelWarn, "cell failed permanently",
		"cell", ev.Cell, "cell_id", sc.id, "corr_id", sc.corr, "error", msg)
	sc.errMsg = msg
	c.failed.Add(1)
	c.finishLocked(sc, StatusFailed)
	c.publish(ev)
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathSubmit, c.handleSubmit)
	mux.HandleFunc(PathLease, c.handleLease)
	mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc(PathComplete, c.handleComplete)
	mux.HandleFunc(PathResult, c.handleResult)
	mux.HandleFunc(PathStats, c.handleStats)
	mux.Handle(PathEvents, obs.SSEHandler(c.opt.Events))
	mux.Handle(PathMetrics, obs.MetricsHandler(c.reg))
	mux.HandleFunc(PathHealth, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) decodeBody(w http.ResponseWriter, r *http.Request, v any, what string, version *int) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("decoding %s: %v", what, err), http.StatusBadRequest)
		return false
	}
	if err := schema.Check(*version, c.version, what); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// observed reports whether any tracing surface is enabled — the single
// cheap check the hot dispatch path guards correlation work behind.
func (c *Coordinator) observed() bool {
	return c.opt.Events != nil || c.opt.Spans != nil
}

// handleSubmit registers cells. Known cells (queued, running, finished,
// or in the store) are deduplicated for free via their content IDs;
// permanently failed cells are re-armed — failures are never persisted,
// so a resubmitted failure re-executes, exactly like a fresh campaign
// over an engine. A request with a wait budget is then held until its
// cells have finished and answered with their results.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !c.decodeBody(w, r, &req, "submit request", &req.SchemaVersion) {
		return
	}
	// The correlation ID propagates from the client (body or header);
	// when tracing is on and the client sent none, mint one here so
	// every span and event of this campaign still stitches together.
	corr := req.CorrID
	if corr == "" {
		corr = r.Header.Get(obs.CorrHeader)
	}
	if corr == "" && c.observed() {
		corr = obs.NewCorrID()
	}
	// Probe the store outside the lock: disk reads must not stall the
	// dispatch path. A racing duplicate submit resolves under the lock.
	type probe struct {
		id  string
		rec encodedRecord
	}
	probes := make([]probe, len(req.Cells))
	for i, cell := range req.Cells {
		probes[i].id = cell.ID()
		if c.opt.Resume && c.opt.Store != nil {
			rec, err := c.opt.Store.Get(probes[i].id)
			if err == nil && rec != nil {
				probes[i].rec, err = json.Marshal(rec)
			}
			if err != nil {
				c.log(slog.LevelWarn, "store entry unusable, re-running",
					"cell_id", probes[i].id, "error", err)
			}
		}
	}
	wait := waitBudget(req.WaitMS)

	now := time.Now()
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		http.Error(w, "coordinator is draining", http.StatusServiceUnavailable)
		return
	}
	// Backpressure: count the enqueues this request needs and bounce the
	// whole batch if the queue cannot absorb them.
	need := 0
	for i := range req.Cells {
		sc, known := c.cells[probes[i].id]
		if (!known || sc.status == StatusFailed) && probes[i].rec == nil {
			need++
		}
	}
	if c.queue.len()+need > c.opt.QueueCap {
		c.mu.Unlock()
		c.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("queue full (%d pending, cap %d)", need, c.opt.QueueCap),
			http.StatusTooManyRequests)
		return
	}
	resp := submitResponse[encodedRecord]{IDs: make([]string, len(req.Cells))}
	states := make([]*svcCell, len(req.Cells)) // the submitted cells' states, in request order
	for i, cell := range req.Cells {
		id := probes[i].id
		resp.IDs[i] = id
		sc, known := c.cells[id]
		if !known {
			sc = &svcCell{id: id}
			c.cells[id] = sc
			c.submitted.Add(1)
		}
		states[i] = sc
		if known && sc.status != StatusFailed {
			continue // queued, running, or done: dedup
		}
		// A new cell, or a re-armed failure: fresh lifecycle, fresh waiters.
		sc.attempts, sc.errMsg = 0, ""
		sc.inflight = &inflight{cell: cell, corr: corr, done: make(chan struct{})}
		if rec := probes[i].rec; rec != nil {
			ev := cellEvent(obs.EventComplete, sc)
			ev.Note = "store hit"
			sc.rec = rec
			c.cacheHits.Add(1)
			c.completed.Add(1)
			c.finishLocked(sc, StatusDone)
			c.publish(ev)
			continue
		}
		sc.status = StatusPending
		sc.queuedAt = now
		c.queue.pushBack(sc)
		resp.Enqueued++
		c.publish(cellEvent(obs.EventSubmit, sc))
	}
	if resp.Enqueued > 0 {
		c.broadcastLocked()
	}
	// A waiting submission is released by the verdicts of its cells that
	// have none yet, whoever submitted them first.
	var unfinished []<-chan struct{}
	if wait > 0 {
		for _, sc := range states {
			if sc.inflight != nil {
				unfinished = append(unfinished, sc.done)
			}
		}
	}
	c.mu.Unlock()
	// Model-pruned sweep accounting rides the submission that carries the
	// surviving cells: fold the counts into the fleet counters and tell
	// the event stream how much of the grid the model answered.
	if req.ModelPruned > 0 || req.ModelAudited > 0 {
		c.modelPruned.Add(req.ModelPruned)
		c.modelAudited.Add(req.ModelAudited)
		c.publish(obs.Event{
			Type:   obs.EventPrune,
			CorrID: corr,
			Note: fmt.Sprintf("model pruned %d cells (%d audited) alongside %d submitted",
				req.ModelPruned, req.ModelAudited, len(req.Cells)),
		})
		c.log(slog.LevelInfo, "model-pruned submission",
			"pruned", req.ModelPruned, "audited", req.ModelAudited,
			"cells", len(req.Cells), "corr_id", corr)
	}
	if wait > 0 {
		if !awaitAll(r.Context(), unfinished, wait) {
			return // the client hung up
		}
		resp.Results = make([]resultResponse[encodedRecord], len(states))
		c.mu.Lock()
		for i, sc := range states {
			resp.Results[i] = resultLocked(sc)
		}
		c.mu.Unlock()
	}
	stamp(&resp.SchemaVersion)
	writeJSON(w, http.StatusOK, resp)
}

// waitBudget is a request's long-poll budget, capped at a minute.
func waitBudget(ms int64) time.Duration {
	return min(time.Duration(ms)*time.Millisecond, time.Minute)
}

// awaitAll waits until every channel is closed or the budget runs out;
// false means the requester gave up first.
func awaitAll(ctx context.Context, chans []<-chan struct{}, budget time.Duration) bool {
	timeout := time.NewTimer(budget)
	defer timeout.Stop()
	for _, ch := range chans {
		select {
		case <-ch:
		case <-timeout.C:
			return true
		case <-ctx.Done():
			return false
		}
	}
	return true
}

// resultLocked snapshots one cell's outcome — the one routine behind
// PathResult and a waiting submission's Results. Callers hold mu.
func resultLocked(sc *svcCell) resultResponse[encodedRecord] {
	res := resultResponse[encodedRecord]{
		CellID:   sc.id,
		Status:   sc.status,
		Attempts: sc.attempts,
	}
	stamp(&res.SchemaVersion)
	switch sc.status {
	case StatusDone:
		res.Record = sc.rec
	case StatusFailed:
		res.Error = sc.errMsg
	}
	return res
}

// handleLease hands one pending cell to a worker under a fresh lease,
// long-polling up to the request's wait budget when the queue is dry.
// The outcome of the worker's previous lease, when the request carries
// it, is applied first: the client waiting on that cell is released
// before this request settles into its poll, and the cell that client
// submits next finds the worker already waiting.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !c.decodeBody(w, r, &req, "lease request", &req.SchemaVersion) {
		return
	}
	var resp LeaseResponse
	stamp(&resp.SchemaVersion)
	if req.Done != nil {
		resp.DoneStatus = c.complete(req.Done)
	}
	// Minted before the lock is taken: reading the system's random source
	// is no work to do under the coordinator-wide mutex.
	leaseID := newLeaseID()
	deadline := time.Now().Add(waitBudget(req.WaitMS))
	for {
		c.mu.Lock()
		if c.draining {
			c.mu.Unlock()
			resp.Draining = true
			writeJSON(w, http.StatusOK, resp)
			return
		}
		if sc := c.queue.popReady(time.Now()); sc != nil {
			resp.Lease = c.leaseLocked(sc, req.WorkerID, leaseID)
			c.mu.Unlock()
			if c.opt.Log != nil { // per cell: do not build the arguments for nobody
				c.log(slog.LevelDebug, "leased",
					"cell", resp.Lease.Cell.String(), "cell_id", resp.Lease.CellID, "corr_id", resp.Lease.CorrID,
					"worker", req.WorkerID, "lease", leaseID, "attempt", resp.Lease.Attempt)
			}
			writeJSON(w, http.StatusOK, resp)
			return
		}
		wake := c.wake
		c.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			writeJSON(w, http.StatusOK, resp)
			return
		}
		// The 50ms tick also promotes cells whose retry backoff elapsed.
		poll := min(remain, 50*time.Millisecond)
		select {
		case <-wake:
		case <-time.After(poll):
		case <-r.Context().Done():
			return
		}
	}
}

// newLeaseID mints an unguessable lease ID.
func newLeaseID() string {
	var raw [8]byte
	rand.Read(raw[:])
	return hex.EncodeToString(raw[:])
}

// leaseLocked puts a cell under the lease id, closing its queued span
// and opening its leased one. Callers hold mu.
func (c *Coordinator) leaseLocked(sc *svcCell, worker, id string) *Lease {
	now := time.Now()
	sc.status = StatusRunning
	sc.leaseID = id
	sc.worker = worker
	sc.expiry = now.Add(c.opt.LeaseTTL)
	sc.ivDone, sc.ivPlanned = 0, 0
	sc.attempts++
	c.span(obs.SpanQueued, sc, sc.queuedAt, now, "")
	sc.leasedAt = now
	c.leases[id] = sc
	c.publish(cellEvent(obs.EventLease, sc))
	ls := &Lease{
		LeaseID: id,
		CellID:  sc.id,
		Cell:    sc.cell,
		Attempt: sc.attempts,
		TTLMS:   c.opt.LeaseTTL.Milliseconds(),
	}
	// Propagating the correlation ID is what arms worker-side span
	// recording; withhold it when no tracing surface is on so a disabled
	// fleet stays span-free end to end.
	if c.observed() {
		ls.CorrID = sc.corr
	}
	return ls
}

// handleHeartbeat extends a live lease. A lease the reaper already
// returned to the queue answers 410 Gone: the worker should abandon the
// cell (its eventual completion would be refused anyway).
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !c.decodeBody(w, r, &req, "heartbeat", &req.SchemaVersion) {
		return
	}
	c.mu.Lock()
	sc, ok := c.leases[req.LeaseID]
	if ok {
		sc.expiry = time.Now().Add(c.opt.LeaseTTL)
		if req.IntervalsPlanned > 0 {
			sc.ivDone, sc.ivPlanned = req.IntervalsDone, req.IntervalsPlanned
		}
		c.publish(cellEvent(obs.EventHeartbeat, sc))
	}
	c.mu.Unlock()
	if !ok {
		http.Error(w, "lease not held", http.StatusGone)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// handleComplete is a completion sent on its own — what a worker does
// with its last outcome at shutdown, and what a protocol-v3 worker does
// with every one.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !c.decodeBody(w, r, &req, "completion", &req.SchemaVersion) {
		return
	}
	if code := c.complete(&req); code != http.StatusOK {
		http.Error(w, "lease not held", code)
	}
}

// complete resolves a leased cell with its worker's outcome and returns
// the HTTP status that answers it. Stale leases (expired, the cell
// re-dispatched elsewhere, or this very outcome already applied) are
// refused with 410 so a hung worker waking up late cannot overwrite the
// authoritative outcome. Records are sanity-checked against the cell's
// content ID — a corrupted worker cannot poison the store — and
// persisted before waiters release.
func (c *Coordinator) complete(req *CompleteRequest) int {
	now := time.Now()
	c.mu.Lock()
	sc, ok := c.leases[req.LeaseID]
	if !ok || sc.leaseID != req.LeaseID {
		c.mu.Unlock()
		return http.StatusGone
	}
	delete(c.leases, req.LeaseID)

	errMsg, transient := req.Error, req.Transient
	rec := req.Record
	if errMsg == "" {
		switch {
		case rec == nil:
			errMsg, transient = "completion carried neither record nor error", true
		case rec.CellID != "" && rec.CellID != sc.id:
			// A worker that disagrees about what it computed is corrupt;
			// the work itself is fine — re-dispatch it.
			errMsg = fmt.Sprintf("record names cell %s, lease was for %s (corrupt worker?)", rec.CellID, sc.id)
			transient = true
		}
	}
	c.span(obs.SpanLeased, sc, sc.leasedAt, now, errMsg)
	sc.leaseID = ""
	// Worker-side spans (executing, attempt) merge into the same log so
	// the fleet timeline carries both sides of the hop.
	if c.opt.Spans != nil {
		for _, sp := range req.Spans {
			c.opt.Spans.Record(sp)
		}
	}
	var enc encodedRecord
	if errMsg == "" {
		rec.CellID = sc.id
		// Encode once — these bytes are the store file and every result
		// response — and persist before releasing waiters: a client that
		// saw "done" must never observe a store the record has not
		// reached yet. The cell is out of the lease table and not queued,
		// so nothing else can touch it while the lock is dropped for the
		// encoding and the disk I/O.
		c.mu.Unlock()
		var err error
		if enc, err = json.Marshal(rec); err != nil {
			errMsg, transient = fmt.Sprintf("record does not encode: %v", err), false
		} else if c.opt.Store != nil {
			putStart := time.Now()
			if perr := c.opt.Store.PutEncoded(sc.id, enc); perr != nil {
				c.log(slog.LevelWarn, "persisting record",
					"cell", sc.cell.String(), "cell_id", sc.id, "error", perr)
			}
			c.span(obs.SpanPersisting, sc, putStart, time.Now(), "")
		}
		c.mu.Lock()
	}
	if errMsg == "" {
		ev := cellEvent(obs.EventComplete, sc)
		ev.Worker = req.WorkerID
		sc.rec = enc
		c.completed.Add(1)
		c.instrs.Add(rec.Stats.Committed)
		c.finishLocked(sc, StatusDone)
		c.mu.Unlock()
		c.publish(ev)
		if c.opt.Log != nil { // per cell: do not build the arguments for nobody
			c.log(slog.LevelDebug, "completed",
				"cell", ev.Cell, "cell_id", ev.CellID, "corr_id", ev.CorrID, "worker", req.WorkerID)
		}
		return http.StatusOK
	}

	sc.failures++
	if transient && sc.failures < c.opt.Retry.Attempts() {
		c.retries.Add(1)
		sc.status = StatusPending
		sc.notBefore = now.Add(c.opt.Retry.Backoff(sc.failures))
		sc.queuedAt = now
		c.queue.pushBack(sc)
		ev := cellEvent(obs.EventRetry, sc)
		ev.Worker = req.WorkerID
		ev.Error = errMsg
		c.publish(ev)
		c.broadcastLocked()
		c.log(slog.LevelWarn, "retrying after transient failure",
			"cell", ev.Cell, "cell_id", sc.id, "corr_id", sc.corr,
			"failure", sc.failures, "worker", req.WorkerID, "error", errMsg)
		c.mu.Unlock()
		return http.StatusOK
	}
	c.failLocked(sc, errMsg)
	c.mu.Unlock()
	return http.StatusOK
}

// handleResult reports (optionally awaiting) one cell's outcome.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing id", http.StatusBadRequest)
		return
	}
	waitMS, _ := strconv.ParseInt(r.URL.Query().Get("wait_ms"), 10, 64)
	c.mu.Lock()
	sc, ok := c.cells[id]
	var unfinished []<-chan struct{}
	if ok && sc.inflight != nil {
		unfinished = []<-chan struct{}{sc.done}
	}
	c.mu.Unlock()
	if !ok {
		http.Error(w, "unknown cell (submit it first)", http.StatusNotFound)
		return
	}
	if wait := waitBudget(waitMS); wait > 0 && !awaitAll(r.Context(), unfinished, wait) {
		return
	}
	c.mu.Lock()
	resp := resultLocked(sc)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() StatsResponse {
	c.mu.Lock()
	depth, active, draining := c.queue.len(), len(c.leases), c.draining
	c.mu.Unlock()
	resp := StatsResponse{
		QueueDepth:    depth,
		QueueCap:      c.opt.QueueCap,
		ActiveLeases:  active,
		Submitted:     c.submitted.Load(),
		Completed:     c.completed.Load(),
		Failed:        c.failed.Load(),
		CacheHits:     c.cacheHits.Load(),
		Retries:       c.retries.Load(),
		Requeues:      c.requeues.Load(),
		LeaseExpiries: c.leaseExpiries.Load(),
		Rejected:      c.rejected.Load(),
		Instrs:        c.instrs.Load(),
		ModelPruned:   c.modelPruned.Load(),
		ModelAudited:  c.modelAudited.Load(),
		Draining:      draining,
	}
	stamp(&resp.SchemaVersion)
	return resp
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Stats())
}

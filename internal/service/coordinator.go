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
	// Retry governs re-dispatch of cells whose workers report a transient
	// failure: budget via MaxAttempts, cool-down via BaseDelay/MaxDelay/
	// Jitter. (Workers classify; the policy's IsTransient is not used.)
	Retry campaign.RetryPolicy
	// MaxRequeues bounds how often lease expiry may requeue one cell
	// before it fails permanently (<= 0: 5) — the poison-cell guard: a
	// cell that kills every worker it touches must not eat the fleet.
	MaxRequeues int
	// Log receives dispatch, expiry, and rejection records with
	// structured cell/lease/worker/correlation IDs (nil = quiet).
	// Routine lifecycle traffic logs at Debug; failures at Warn.
	Log *slog.Logger

	// Events, when non-nil, receives every lifecycle event plus periodic
	// progress snapshots, served to any number of SSE subscribers at
	// PathEvents. nil disables event streaming at zero cost.
	Events *obs.Bus
	// Spans, when non-nil, records cell-lifecycle spans (queued, leased,
	// persisting here; attempt, executing merged from workers) for
	// `wibtrace -fleet`. nil disables span tracing at zero cost.
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
// cell keeps this struct alone — identity, verdict and attempt count —
// for the coordinator's life; its record is the store's. What matters
// only while the cell is queued, cooling down or leased is in *inflight,
// dropped with the verdict (DESIGN.md §10.6).
type svcCell struct {
	id       string
	status   string // StatusPending | StatusRunning | StatusDone | StatusFailed
	attempts int    // dispatches so far

	// rec is a done cell's record where the store does not hold it: the
	// coordinator has none, or the write failed.
	rec    encodedRecord
	errMsg string // StatusFailed

	*inflight // nil once done or failed
}

// inflight is a cell's scheduling state between submission and verdict.
type inflight struct {
	cell *campaign.Cell // as its submission decoded it; never written
	corr string         // campaign correlation ID (empty when tracing is off)

	failures int // transient failures reported by workers
	requeues int // lease expiries suffered

	queuedAt time.Time // start of the current queued span
	leasedAt time.Time // start of the current leased span

	leaseID string
	expiry  time.Time
	worker  string

	// Sampled-cell interval progress from the holder's heartbeats (done
	// of planned measured windows), reset with every lease.
	ivDone, ivPlanned uint64

	done chan struct{} // closed on StatusDone / StatusFailed
	// record is what StatusDone brought, for the requests waiting on done:
	// they hold this block, so the record lives until the last of them
	// has answered.
	record encodedRecord
}

// cellQueue is the pending queue, a ring indexed from head: taking the
// front cell or putting a requeued one back there moves nothing, and a
// vacated slot is cleared so the ring never keeps a dispatched cell
// reachable. It holds only cells a worker may take now.
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

// pop removes and returns the front cell, nil when the queue is empty.
func (q *cellQueue) pop() *svcCell {
	if q.n == 0 {
		return nil
	}
	sc := *q.slot(0)
	*q.slot(0) = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return sc
}

// Coordinator schedules submitted cells onto leasing workers and owns
// the authoritative lifecycle of every cell: pending → running →
// done/failed, with lease-expiry requeue and transient-failure retry in
// between. The lifecycle is six transitions — submit, lease, heartbeat,
// settle (claim, then settle: the store write sits between the halves,
// outside the lock), expire and promote — each taking the time and what
// its caller decoded, reading no clock, doing no I/O, and returning the
// step that happened, which emit alone turns into events, spans, log
// records and counter bumps.
//
// All state is in memory except finished records, which live in the
// shared store, so losing the coordinator loses no result: a Client whose
// result poll meets a restarted coordinator (404, unknown cell) submits
// the cell again, and with Resume the new coordinator serves the cells
// already in the store as hits and queues the rest.
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
	cooling  int // cells waiting out a retry cool-down: in no queue, a timer each
	leases   map[string]*svcCell
	settling int           // claimed outcomes whose verdict waits on the store write
	wake     chan struct{} // closed by the next enqueue; nil until a lease poll waits
	draining bool
	idle     chan struct{} // closed when a drain's last lease has its verdict

	// Counters, bumped by emit alone and read lock-free. instrs sums the
	// completions' simulated instructions; modelPruned counts cells the
	// interval model answered, modelAudited those simulated to audit it.
	submitted, completed, failed, cacheHits, retries, requeues atomic.Uint64
	leaseExpiries, rejected, instrs, modelPruned, modelAudited atomic.Uint64

	closing       sync.Once
	stop, stopped chan struct{} // the clock goroutine's
}

// NewCoordinator builds a coordinator and starts its clock (the lease
// reaper and the progress broadcast). Call Close (or Drain) when done.
func NewCoordinator(opt CoordinatorOptions) *Coordinator {
	c := &Coordinator{
		opt:     opt.withDefaults(),
		reg:     telemetry.NewRegistry(),
		start:   time.Now(),
		version: schema.ServiceVersion,
		cells:   make(map[string]*svcCell),
		leases:  make(map[string]*svcCell),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
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
	c.reg.Gauge("service.queue.depth", func(int64) float64 { return float64(c.Stats().QueueDepth) })
	c.reg.Gauge("service.active_leases", func(int64) float64 { return float64(c.Stats().ActiveLeases) })
	if c.opt.Events != nil {
		c.reg.CounterFunc("service.events.published", c.opt.Events.Published)
		c.reg.CounterFunc("service.events.dropped", c.opt.Events.Dropped)
		c.reg.Gauge("service.events.subscribers", func(int64) float64 { return float64(c.opt.Events.Subscribers()) })
	}
	if c.opt.Spans != nil {
		c.reg.CounterFunc("service.spans.recorded", c.opt.Spans.Count)
	}
	go c.clock()
	return c
}

// Registry exposes the coordinator's telemetry counters (also served as
// Prometheus text at PathMetrics).
func (c *Coordinator) Registry() *telemetry.Registry { return c.reg }

// --- transitions: callers hold mu ---

// arrival is one submitted cell: its store record (Resume) as probed
// before the lock, and what submit made of it.
type arrival struct {
	id   string
	hit  encodedRecord
	sc   *svcCell
	fl   *inflight // the lifecycle a waiting submission awaits; nil if the cell had finished
	step step      // stepNone for a duplicate
}

// submit registers cells. Known cells (queued, cooling, running or
// finished) are deduplicated by content ID; new cells and failed ones —
// failures are never persisted, so a resubmitted failure re-executes —
// get a fresh lifecycle: finished at once on a store hit, queued
// otherwise. It returns false, having changed nothing, when the queue
// cannot absorb the need cells the batch would queue.
func (c *Coordinator) submit(now time.Time, cells []campaign.Cell, corr string, in []arrival) (need int, ok bool) {
	for i := range in {
		sc, known := c.cells[in[i].id]
		if (!known || sc.status == StatusFailed) && in[i].hit == nil {
			need++
		}
	}
	if c.queue.len()+c.cooling+need > c.opt.QueueCap {
		return need, false
	}
	for i := range cells {
		a := &in[i]
		sc, known := c.cells[a.id]
		if !known {
			sc = &svcCell{id: a.id}
			c.cells[a.id] = sc
		}
		if a.sc, a.fl = sc, sc.inflight; known && sc.status != StatusFailed {
			continue
		}
		sc.attempts, sc.errMsg = 0, ""
		sc.inflight = &inflight{cell: &cells[i], corr: corr, queuedAt: now, done: make(chan struct{})}
		a.fl = sc.inflight
		a.step = step{kind: stepQueued, cell: *sc, fresh: !known}
		if a.hit != nil {
			a.step.kind = stepHit
			sc.record = a.hit // the store holds it
			c.finish(sc, StatusDone, "")
			continue
		}
		sc.status = StatusPending
		c.ready(sc)
	}
	return need, true
}

// lease hands the front cell to worker under lease id; stepNone when the
// queue is empty.
func (c *Coordinator) lease(now time.Time, worker, id string) step {
	sc := c.queue.pop()
	if sc == nil {
		return step{}
	}
	sc.status, sc.leaseID, sc.worker = StatusRunning, id, worker
	sc.expiry = now.Add(c.opt.LeaseTTL)
	sc.ivDone, sc.ivPlanned = 0, 0
	sc.attempts++
	sc.leasedAt = now
	c.leases[id] = sc
	return step{kind: stepLeased, at: now, cell: *sc}
}

// heartbeat extends a live lease and records the holder's interval
// progress; stepNone for a lease not held.
func (c *Coordinator) heartbeat(now time.Time, req *HeartbeatRequest) step {
	sc, ok := c.leases[req.LeaseID]
	if !ok {
		return step{}
	}
	sc.expiry = now.Add(c.opt.LeaseTTL)
	if req.IntervalsPlanned > 0 {
		sc.ivDone, sc.ivPlanned = req.IntervalsDone, req.IntervalsPlanned
	}
	return step{kind: stepHeartbeat, cell: *sc}
}

// claim is settle's first half: it takes the cell out of the lease table
// and judges the outcome. A stale lease (expired, or this very outcome
// already applied) returns no cell and stepNone: a late zombie cannot
// overwrite the authoritative outcome. A record naming another cell is a
// transient failure: the worker is corrupt, the work is fine.
func (c *Coordinator) claim(now time.Time, req *CompleteRequest) (*svcCell, step) {
	sc, ok := c.leases[req.LeaseID]
	if !ok {
		return nil, step{}
	}
	c.settling++
	c.unlease(sc)
	s := step{kind: stepClaimed, at: now, cell: *sc, worker: req.WorkerID,
		err: req.Error, transient: req.Transient, spans: req.Spans}
	switch rec := req.Record; {
	case s.err != "":
	case rec == nil:
		s.err, s.transient = "completion carried neither record nor error", true
	case rec.CellID != "" && rec.CellID != sc.id:
		s.err = fmt.Sprintf("record names cell %s, lease was for %s (corrupt worker?)", rec.CellID, sc.id)
		s.transient = true
	}
	return sc, s
}

// settle gives a claimed cell its verdict: done with the record in enc,
// a retry while the budget lasts, or failed. A done cell's record goes to
// its waiters and stays with the cell only if the store did not take it.
// A retry is queued at once under a zero backoff; otherwise it cools down
// for the step's delay, which the caller times before calling promote.
func (c *Coordinator) settle(now time.Time, sc *svcCell, claimed step) step {
	s := claimed
	c.settling--
	defer c.releaseDrain()
	if s.kind = stepDone; s.err == "" {
		sc.record = s.enc
		if c.opt.Store == nil || s.putErr != nil {
			sc.rec = s.enc
		}
		c.finish(sc, StatusDone, "")
		return s
	}
	if sc.failures++; !s.transient || sc.failures >= c.opt.Retry.Attempts() {
		s.kind = stepFailed
		c.finish(sc, StatusFailed, s.err)
		return s
	}
	s.kind = stepRetry
	sc.status, sc.queuedAt = StatusPending, now
	if s.delay = c.opt.Retry.Backoff(sc.failures); s.delay > 0 {
		c.cooling++
	} else {
		c.ready(sc)
	}
	return s
}

// expire returns a lease that went a full TTL unheard to the front of the
// queue (the cell has waited its turn) or, past MaxRequeues, fails the
// cell; stepNone while the lease is live. Re-dispatch is always safe:
// failures are never persisted and records are content-addressed.
func (c *Coordinator) expire(now time.Time, sc *svcCell) step {
	if now.Before(sc.expiry) {
		return step{}
	}
	s := step{kind: stepExpired, at: now, lease: sc.leaseID}
	c.unlease(sc)
	s.cell = *sc
	if sc.requeues++; sc.requeues > c.opt.MaxRequeues {
		s.err = fmt.Sprintf("lease expired %d times (poison cell or fleet-wide loss)", sc.requeues)
		c.finish(sc, StatusFailed, s.err)
		return s
	}
	sc.status, sc.queuedAt = StatusPending, now
	c.queue.pushFront(sc)
	c.wakePolls()
	return s
}

// promote ends a retry cool-down: the cell joins the back of the queue.
func (c *Coordinator) promote(sc *svcCell) {
	c.cooling--
	c.ready(sc)
}

// ready queues a cell at the back and wakes the lease polls.
func (c *Coordinator) ready(sc *svcCell) {
	c.queue.pushBack(sc)
	c.wakePolls()
}

// wakePolls releases every waiting lease poll.
func (c *Coordinator) wakePolls() {
	if c.wake != nil {
		close(c.wake)
		c.wake = nil
	}
}

// unlease drops a cell's lease.
func (c *Coordinator) unlease(sc *svcCell) {
	delete(c.leases, sc.leaseID)
	sc.leaseID = ""
	c.releaseDrain()
}

// releaseDrain releases a waiting Drain once no lease is held and every
// claimed outcome has its verdict: a drain that returned between claim
// and settle would let the process exit before the record is stored.
func (c *Coordinator) releaseDrain() {
	if len(c.leases) == 0 && c.settling == 0 && c.idle != nil {
		close(c.idle)
		c.idle = nil
	}
}

// finish gives a cell its verdict: waiters are released and the
// scheduling state, which nothing reads past this point, is dropped.
func (c *Coordinator) finish(sc *svcCell, status, errMsg string) {
	sc.status, sc.errMsg = status, errMsg
	close(sc.done)
	sc.inflight = nil
}

// stepKind names what happened. stepNone is nothing: a duplicate
// submission, a dry queue, a lease not held.
type stepKind uint8

const (
	stepNone      stepKind = iota
	stepQueued             // submit: a new or re-armed cell joined the queue
	stepHit                // submit: a new or re-armed cell was a store hit
	stepLeased             // lease
	stepHeartbeat          // heartbeat
	stepClaimed            // claim
	stepDone               // settle (and, with since set, the store write before it)
	stepRetry              // settle
	stepFailed             // settle
	stepExpired            // expire: requeued, or failed when err is set
	stepUnusable           // a store entry probed for a submission does not decode
	stepRejected           // a submission bounced by backpressure
	stepPruned             // a submission carried model-pruned accounting
	stepDrain              // Drain began
	stepProgress           // a progress snapshot is due
)

// step is one thing that happened, as emit reports it. cell copies the
// cell as the transition saw it, keeping the scheduling state a verdict
// drops; that state is shared, so a cell step is emitted under mu.
type step struct {
	kind      stepKind
	cell      svcCell
	at, since time.Time     // the span a step closes ends at at; a store write spans since to at
	worker    string        // the worker that reported a claimed outcome
	lease     string        // stepExpired: the lease that died
	err       string        // the failure carried
	putErr    error         // stepDone: the store write's error
	transient bool          // claim: the failure is worth a retry
	fresh     bool          // submit: the coordinator had not seen the cell
	enc       encodedRecord // settle: the record as persisted
	n         uint64        // stepDone: instructions; stepDrain: leases in flight
	delay     time.Duration // stepRetry: the cool-down
	spans     []obs.Span    // stepClaimed: the worker's own spans
	sub       *SubmitRequest
}

// emit reports one step: counters always; the bus, span log and logger
// each behind a nil check, the per-cell log records built only for a
// logger. stepProgress takes mu itself and is emitted without it.
func (c *Coordinator) emit(s step) {
	sc, logs := &s.cell, c.opt.Log != nil
	switch s.kind {
	case stepQueued, stepHit:
		if s.fresh {
			c.submitted.Add(1)
		}
		typ, note := obs.EventSubmit, ""
		if s.kind == stepHit {
			typ, note = obs.EventComplete, "store hit"
			c.cacheHits.Add(1)
			c.completed.Add(1)
		}
		c.event(typ, sc, "", "", note)
	case stepLeased:
		c.span(obs.SpanQueued, sc, sc.queuedAt, s.at, "")
		c.event(obs.EventLease, sc, sc.worker, "", "")
		if logs {
			c.log(slog.LevelDebug, "leased", "cell", sc.cell.String(), "cell_id", sc.id, "corr_id", sc.corr,
				"worker", sc.worker, "lease", sc.leaseID, "attempt", sc.attempts)
		}
	case stepHeartbeat:
		c.event(obs.EventHeartbeat, sc, sc.worker, "", "")
	case stepClaimed:
		c.span(obs.SpanLeased, sc, sc.leasedAt, s.at, s.err)
		for _, sp := range s.spans { // the worker's side of the hop
			c.opt.Spans.Record(sp)
		}
	case stepDone:
		if !s.since.IsZero() {
			if s.putErr != nil {
				c.log(slog.LevelWarn, "persisting record", "cell", sc.cell.String(), "cell_id", sc.id, "error", s.putErr)
			}
			c.span(obs.SpanPersisting, sc, s.since, s.at, "")
		}
		c.completed.Add(1)
		c.instrs.Add(s.n)
		c.event(obs.EventComplete, sc, s.worker, "", "")
		if logs {
			c.log(slog.LevelDebug, "completed",
				"cell", sc.cell.String(), "cell_id", sc.id, "corr_id", sc.corr, "worker", s.worker)
		}
	case stepRetry:
		c.retries.Add(1)
		c.event(obs.EventRetry, sc, s.worker, s.err, "")
		c.log(slog.LevelWarn, "retrying after transient failure", "cell", sc.cell.String(), "cell_id", sc.id,
			"corr_id", sc.corr, "failure", sc.failures, "worker", s.worker, "error", s.err)
	case stepExpired:
		c.span(obs.SpanLeased, sc, sc.leasedAt, s.at, "lease expired")
		c.leaseExpiries.Add(1)
		c.log(slog.LevelWarn, "lease expired", "lease", s.lease, "worker", sc.worker, "cell", sc.cell.String(),
			"cell_id", sc.id, "corr_id", sc.corr, "attempt", sc.attempts)
		if s.err == "" {
			c.requeues.Add(1)
			c.event(obs.EventRequeue, sc, sc.worker, "", "")
			break
		}
		fallthrough // past MaxRequeues: the poison-cell guard failed it
	case stepFailed:
		c.log(slog.LevelWarn, "cell failed permanently", "cell", sc.cell.String(), "cell_id", sc.id,
			"corr_id", sc.corr, "error", s.err)
		c.failed.Add(1)
		c.event(obs.EventFail, sc, sc.worker, s.err, "")
	case stepUnusable:
		c.log(slog.LevelWarn, "store entry unusable, re-running", "cell_id", sc.id, "error", s.err)
	case stepRejected:
		c.rejected.Add(1)
	case stepPruned:
		r := s.sub
		c.modelPruned.Add(r.ModelPruned)
		c.modelAudited.Add(r.ModelAudited)
		c.publish(obs.Event{Type: obs.EventPrune, CorrID: r.CorrID, Note: fmt.Sprintf(
			"model pruned %d cells (%d audited) alongside %d submitted", r.ModelPruned, r.ModelAudited, len(r.Cells))})
		c.log(slog.LevelInfo, "model-pruned submission", "pruned", r.ModelPruned, "audited", r.ModelAudited,
			"cells", len(r.Cells), "corr_id", r.CorrID)
	case stepDrain:
		c.publish(obs.Event{Type: obs.EventDrain})
		c.log(slog.LevelInfo, "coordinator draining", "leases_in_flight", int(s.n))
	case stepProgress: // only with a bus attached: see clock
		c.publish(obs.Event{Type: obs.EventProgress, Progress: c.progress()})
	}
}

// event publishes one cell's lifecycle event; a nil bus costs one branch.
func (c *Coordinator) event(typ string, sc *svcCell, worker, errMsg, note string) {
	if c.opt.Events != nil {
		c.opt.Events.Publish(obs.Event{Type: typ, CellID: sc.id, Cell: sc.cell.String(), CorrID: sc.corr,
			Worker: worker, LeaseID: sc.leaseID, Attempt: sc.attempts, Error: errMsg, Note: note})
	}
}

// publish offers one event to the bus; a nil bus costs one untaken
// branch, keeping the disabled path free (the overhead gate in
// obs_overhead_test.go holds this to account).
func (c *Coordinator) publish(ev obs.Event) {
	if c.opt.Events != nil {
		c.opt.Events.Publish(ev)
	}
}

// span records one coordinator-side lifecycle span; nil log = free.
func (c *Coordinator) span(name string, sc *svcCell, start, end time.Time, note string) {
	if c.opt.Spans != nil {
		c.opt.Spans.Record(obs.Span{CorrID: sc.corr, CellID: sc.id, Cell: sc.cell.String(), Name: name,
			Src: "coordinator", Attempt: sc.attempts, StartUS: start.UnixMicro(), EndUS: end.UnixMicro(), Note: note})
	}
}

// log emits one structured record when a logger is attached.
func (c *Coordinator) log(level slog.Level, msg string, args ...any) {
	if c.opt.Log != nil {
		c.opt.Log.Log(context.Background(), level, msg, args...)
	}
}

// Close stops the clock and flushes the span log. It does not wait for
// in-flight work; use Drain for a graceful shutdown.
func (c *Coordinator) Close() {
	c.closing.Do(func() { close(c.stop) })
	<-c.stopped
	c.opt.Spans.Flush()
}

// Drain enters graceful shutdown: submissions are refused (503), workers
// are told to exit, and the call blocks until the last in-flight lease
// settles or ctx expires. Undispatched cells stay pending: they were
// never promised, and a future coordinator re-dispatches them safely.
func (c *Coordinator) Drain(ctx context.Context) error {
	defer c.Close()
	c.mu.Lock()
	c.draining = true
	c.wakePolls()
	inFlight := len(c.leases) + c.settling
	if inFlight > 0 && c.idle == nil {
		c.idle = make(chan struct{})
	}
	idle := c.idle
	c.mu.Unlock()
	c.emit(step{kind: stepDrain, n: uint64(inFlight)})
	if idle == nil {
		return nil
	}
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %d leases still in flight: %w", c.Stats().ActiveLeases, ctx.Err())
	}
}

// clock is the reaper — each tick sends every lease through expire — and,
// with an event bus, the progress snapshots `experiments -watch` renders.
func (c *Coordinator) clock() {
	defer close(c.stopped)
	reap := time.NewTicker(min(max(c.opt.LeaseTTL/4, 10*time.Millisecond), time.Second))
	defer reap.Stop()
	var progress <-chan time.Time
	if c.opt.Events != nil {
		tick := time.NewTicker(c.opt.ProgressInterval)
		defer tick.Stop()
		progress = tick.C
	}
	for {
		select {
		case <-c.stop:
			return
		case now := <-reap.C:
			c.mu.Lock()
			for _, sc := range c.leases {
				c.emit(c.expire(now, sc))
			}
			c.mu.Unlock()
		case <-progress:
			c.emit(step{kind: stepProgress})
		}
	}
}

// leaseCredit sums what the leased sampled cells last reported (the
// caller holds c.mu).
func (c *Coordinator) leaseCredit() (f obs.InFlight) {
	for _, sc := range c.leases {
		f.Add(sc.ivDone, sc.ivPlanned)
	}
	return f
}

// progress snapshots fleet progress with every rendered rate guarded
// against NaN/Inf/negative shapes (campaign start, zero counters); the
// ETA credits the leased sampled cells' intervals.
func (c *Coordinator) progress() *obs.Progress {
	st := c.Stats()
	c.mu.Lock()
	iv := c.leaseCredit()
	c.mu.Unlock()
	elapsed := time.Since(c.start).Seconds()
	p := &obs.Progress{Submitted: st.Submitted, Done: st.Completed, Failed: st.Failed,
		Running: st.ActiveLeases, QueueDepth: st.QueueDepth, CacheHits: st.CacheHits,
		Retries: st.Retries, Requeues: st.Requeues, Instrs: st.Instrs, ElapsedSec: elapsed,
		IntervalsDone: iv.Done, IntervalsPlanned: iv.Planned,
		ModelPruned: st.ModelPruned, ModelAudited: st.ModelAudited}
	p.InstrsPerSec = obs.SaneRate(float64(p.Instrs), elapsed)
	p.ETASec = p.ETA(iv.Credit())
	return p
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() StatsResponse {
	c.mu.Lock()
	depth, active, draining := c.queue.len()+c.cooling, len(c.leases), c.draining // cooling cells count as queued
	c.mu.Unlock()
	resp := StatsResponse{QueueDepth: depth, QueueCap: c.opt.QueueCap, ActiveLeases: active, Draining: draining,
		Submitted: c.submitted.Load(), Completed: c.completed.Load(), Failed: c.failed.Load(),
		CacheHits: c.cacheHits.Load(), Retries: c.retries.Load(), Requeues: c.requeues.Load(),
		LeaseExpiries: c.leaseExpiries.Load(), Rejected: c.rejected.Load(), Instrs: c.instrs.Load(),
		ModelPruned: c.modelPruned.Load(), ModelAudited: c.modelAudited.Load()}
	stamp(&resp.SchemaVersion)
	return resp
}

// --- the HTTP API: decode, lock, transition, emit, unlock, respond ---

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathSubmit, c.handleSubmit)
	mux.HandleFunc(PathLease, c.handleLease)
	mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc(PathComplete, c.handleComplete)
	mux.HandleFunc(PathResult, c.handleResult)
	mux.HandleFunc(PathStats, func(w http.ResponseWriter, r *http.Request) { writeJSON(w, http.StatusOK, c.Stats()) })
	mux.Handle(PathEvents, obs.SSEHandler(c.opt.Events))
	mux.Handle(PathMetrics, obs.MetricsHandler(c.reg))
	mux.HandleFunc(PathHealth, func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok\n") })
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
	if err := readJSON(io.LimitReader(r.Body, 64<<20), v); err != nil {
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
func (c *Coordinator) observed() bool { return c.opt.Events != nil || c.opt.Spans != nil }

// handleSubmit registers cells (submit) and, for a request with a wait
// budget, holds the answer until its cells have finished.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !c.decodeBody(w, r, &req, "submit request", &req.SchemaVersion) {
		return
	}
	// The correlation ID comes from the client (body or header), or is
	// minted here when tracing is on, so the campaign's spans stitch.
	if req.CorrID == "" {
		req.CorrID = r.Header.Get(obs.CorrHeader)
	}
	if req.CorrID == "" && c.observed() {
		req.CorrID = obs.NewCorrID()
	}
	// Probe the store outside the lock: disk reads must not stall the
	// dispatch path. A racing duplicate submit resolves under the lock.
	in := make([]arrival, len(req.Cells))
	for i, cell := range req.Cells {
		in[i].id = cell.ID()
		if c.opt.Resume && c.opt.Store != nil {
			var err error
			if in[i].hit, err = c.opt.Store.GetEncoded(in[i].id); err != nil {
				c.emit(step{kind: stepUnusable, cell: svcCell{id: in[i].id}, err: err.Error()})
			}
		}
	}
	wait := waitBudget(req.WaitMS)

	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		http.Error(w, "coordinator is draining", http.StatusServiceUnavailable)
		return
	}
	need, ok := c.submit(time.Now(), req.Cells, req.CorrID, in)
	if !ok {
		c.emit(step{kind: stepRejected})
		c.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("queue full (%d pending, cap %d)", need, c.opt.QueueCap), http.StatusTooManyRequests)
		return
	}
	resp := submitResponse[encodedRecord]{IDs: make([]string, len(in))}
	// A waiting submission is released by the verdicts of its cells that
	// have none yet, whoever submitted them first.
	var unfinished []<-chan struct{}
	for i, a := range in {
		c.emit(a.step)
		if resp.IDs[i] = a.id; a.step.kind == stepQueued {
			resp.Enqueued++
		}
		if wait > 0 && a.fl != nil {
			unfinished = append(unfinished, a.fl.done)
		}
	}
	c.mu.Unlock()
	if req.ModelPruned > 0 || req.ModelAudited > 0 {
		c.emit(step{kind: stepPruned, sub: &req})
	}
	if wait > 0 {
		if !awaitAll(r.Context(), unfinished, wait) {
			return // the client hung up
		}
		resp.Results = make([]resultResponse[encodedRecord], len(in))
		c.mu.Lock()
		for i, a := range in {
			resp.Results[i] = resultLocked(a.sc, a.fl)
		}
		c.mu.Unlock()
		for i, a := range in {
			if res := &resp.Results[i]; !c.readRecord(res, a.sc) {
				res.Status = StatusPending // unknown now: the client's result poll resubmits it
			}
		}
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
// PathResult and a waiting submission's Results — with the record from
// memory: the cell's own, or the one its verdict left on fl, the
// lifecycle the caller awaited. A done cell answered without one is
// readRecord's to complete. Callers hold mu.
func resultLocked(sc *svcCell, fl *inflight) resultResponse[encodedRecord] {
	res := resultResponse[encodedRecord]{CellID: sc.id, Status: sc.status, Attempts: sc.attempts}
	stamp(&res.SchemaVersion)
	switch sc.status {
	case StatusDone:
		if res.Record = sc.rec; res.Record == nil && fl != nil {
			res.Record = fl.record
		}
	case StatusFailed:
		res.Error = sc.errMsg
	}
	return res
}

// readRecord completes a done cell's answer from its store file, outside
// the lock. A file missing or unreadable makes the cell unknown: it leaves
// the table, and false tells the caller to answer as for a cell never
// submitted, so a client submits it again.
func (c *Coordinator) readRecord(res *resultResponse[encodedRecord], sc *svcCell) bool {
	if res.Status != StatusDone || res.Record != nil {
		return true
	}
	rec, err := c.opt.Store.GetEncoded(sc.id)
	if rec != nil {
		res.Record = rec
		return true
	}
	if err == nil {
		err = fmt.Errorf("record %s is missing from the store", sc.id)
	}
	c.mu.Lock()
	if c.cells[sc.id] == sc {
		delete(c.cells, sc.id)
	}
	c.mu.Unlock()
	c.emit(step{kind: stepUnusable, cell: svcCell{id: sc.id}, err: err.Error()})
	return false
}

// handleLease hands one queued cell to a worker under a fresh lease,
// long-polling while the queue is empty (a cell entering it is the only
// wake-up). A carried outcome is settled first, so its client is released
// and its next cell finds this worker already waiting.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !c.decodeBody(w, r, &req, "lease request", &req.SchemaVersion) {
		return
	}
	var resp leaseResponse[*campaign.Cell]
	stamp(&resp.SchemaVersion)
	if req.Done != nil {
		resp.DoneStatus = c.deliver(req.Done)
	}
	// Minted before the lock is taken: reading the system's random source
	// is no work to do under the coordinator-wide mutex.
	leaseID := newLeaseID()
	deadline := time.Now().Add(waitBudget(req.WaitMS))
	var timeout *time.Timer // armed on the first wait only
poll:
	for {
		remain := time.Until(deadline)
		var wake chan struct{}
		c.mu.Lock()
		if resp.Draining = c.draining; !resp.Draining {
			if s := c.lease(time.Now(), req.WorkerID, leaseID); s.kind != stepNone {
				c.emit(s)
				resp.Lease = &lease[*campaign.Cell]{LeaseID: leaseID, CellID: s.cell.id, Cell: s.cell.cell,
					Attempt: s.cell.attempts, TTLMS: c.opt.LeaseTTL.Milliseconds()}
				// The correlation ID arms worker-side spans: withheld, an
				// untraced fleet stays span-free end to end.
				if c.observed() {
					resp.Lease.CorrID = s.cell.corr
				}
			} else if remain > 0 {
				if c.wake == nil {
					c.wake = make(chan struct{})
				}
				wake = c.wake
			}
		}
		c.mu.Unlock()
		if wake == nil {
			break
		}
		if timeout == nil {
			timeout = time.NewTimer(remain)
			defer timeout.Stop()
		}
		select {
		case <-wake:
		case <-timeout.C:
			break poll
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// newLeaseID mints an unguessable lease ID.
func newLeaseID() string {
	var raw [8]byte
	rand.Read(raw[:])
	return hex.EncodeToString(raw[:])
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
	s := c.heartbeat(time.Now(), &req)
	c.emit(s)
	c.mu.Unlock()
	if s.kind == stepNone {
		http.Error(w, "lease not held", http.StatusGone)
	}
}

// handleComplete is a completion sent on its own — what a worker does
// with its last outcome at shutdown, and what a protocol-v3 worker does
// with every one.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !c.decodeBody(w, r, &req, "completion", &req.SchemaVersion) {
		return
	}
	if code := c.deliver(&req); code != http.StatusOK {
		http.Error(w, "lease not held", code)
	}
}

// deliver settles a worker's outcome and returns the HTTP status that
// answers it: 200, or 410 for a lease no longer held. A record is encoded
// once, for the store file and the answers to the cell's waiters, and
// persisted between claim and settle, outside the lock — a claimed cell
// is in no queue or lease table — so no client sees "done" before the
// record is on disk.
func (c *Coordinator) deliver(req *CompleteRequest) int {
	now := time.Now()
	c.mu.Lock()
	sc, s := c.claim(now, req)
	c.emit(s)
	if sc == nil {
		c.mu.Unlock()
		return http.StatusGone
	}
	if s.err == "" {
		c.mu.Unlock()
		rec := req.Record
		rec.CellID = sc.id
		if enc, err := rec.MarshalJSON(); err != nil {
			s.err, s.transient = fmt.Sprintf("record does not encode: %v", err), false
		} else if s.enc, s.n = enc, rec.Stats.Committed; c.opt.Store != nil {
			s.since = time.Now()
			s.putErr = c.opt.Store.PutEncoded(sc.id, enc)
			s.at = time.Now()
		}
		c.mu.Lock()
	}
	s = c.settle(now, sc, s)
	c.emit(s)
	c.mu.Unlock()
	if s.delay > 0 {
		time.AfterFunc(s.delay, func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.promote(sc)
		})
	}
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
	var fl *inflight
	if ok {
		fl = sc.inflight
	}
	c.mu.Unlock()
	if !ok {
		http.Error(w, "unknown cell (submit it first)", http.StatusNotFound)
		return
	}
	if wait := waitBudget(waitMS); wait > 0 && fl != nil && !awaitAll(r.Context(), []<-chan struct{}{fl.done}, wait) {
		return
	}
	c.mu.Lock()
	resp := resultLocked(sc, fl)
	c.mu.Unlock()
	if !c.readRecord(&resp, sc) {
		http.Error(w, "unknown cell (submit it first)", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

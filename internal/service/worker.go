package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/obs"
	"largewindow/internal/telemetry"
)

// WorkerMetrics aggregates fleet-visible counters across every worker
// slot of one process. All fields are atomics: slots bump them
// concurrently and the /metrics scrape (obs.MetricsHandler) reads them
// from another goroutine entirely — plain telemetry counters would race.
type WorkerMetrics struct {
	CellsDone   atomic.Uint64 // completions delivered (success or classified failure)
	CellsOK     atomic.Uint64 // completions that carried a record
	CellsFailed atomic.Uint64 // completions that carried an error
	Instrs      atomic.Uint64 // instructions committed by the cells of delivered records
	LeasesLost  atomic.Uint64 // leases the coordinator reaped under us (410)
	Heartbeats  atomic.Uint64 // heartbeats delivered
	hbTotalUS   atomic.Uint64 // cumulative heartbeat round-trip, microseconds
	hbLastUS    atomic.Uint64 // most recent heartbeat round-trip, microseconds
}

func (m *WorkerMetrics) noteHeartbeat(rtt time.Duration) {
	us := uint64(rtt.Microseconds())
	m.Heartbeats.Add(1)
	m.hbTotalUS.Add(us)
	m.hbLastUS.Store(us)
}

// Register exposes the metrics on a telemetry registry (served as
// Prometheus text by the worker's -metrics-addr listener).
func (m *WorkerMetrics) Register(reg *telemetry.Registry) {
	reg.CounterFunc("worker.cells.done", m.CellsDone.Load)
	reg.CounterFunc("worker.cells.ok", m.CellsOK.Load)
	reg.CounterFunc("worker.cells.failed", m.CellsFailed.Load)
	reg.CounterFunc("worker.instrs", m.Instrs.Load)
	reg.CounterFunc("worker.leases.lost", m.LeasesLost.Load)
	reg.CounterFunc("worker.heartbeats", m.Heartbeats.Load)
	reg.CounterFunc("worker.heartbeat.total_us", m.hbTotalUS.Load)
	reg.Gauge("worker.heartbeat.last_us", func(int64) float64 {
		return float64(m.hbLastUS.Load())
	})
}

// WorkerOptions configures one worker process (or goroutine).
type WorkerOptions struct {
	// Server is the coordinator base URL (http://host:port).
	Server string
	// ID names the worker in coordinator logs ("" = host-pid).
	ID string
	// Exec executes one cell when ExecProgress is nil; tests and
	// in-process fleets mount whatever executor they need here.
	Exec campaign.ExecFunc
	// ExecProgress, when set, is used instead of Exec, which is then never
	// called: it receives a per-cell interval progress callback (wibworker
	// mounts harness Session.ExecCell) whose counts the worker
	// ships on its lease heartbeats, so the coordinator's ETA sees
	// fractional in-flight progress on long sampled cells.
	ExecProgress func(cell campaign.Cell, onInterval func(done, planned int)) (*campaign.Record, error)
	// Classify reports whether an execution error is transient — worth
	// the coordinator re-dispatching the cell (harness.Transient for real
	// workers). nil classifies every failure permanent.
	Classify func(error) bool
	// PollWait is the long-poll budget per lease request when the queue
	// is dry (<= 0: 2s).
	PollWait time.Duration
	// Log receives structured lease/completion records with
	// cell/lease/correlation IDs (nil = quiet). Routine traffic logs at
	// Debug; delivery problems at Warn.
	Log *slog.Logger
	// Metrics is bumped on every completion, heartbeat, and lost lease —
	// typically one instance shared by every slot of a worker process
	// (nil: the worker keeps its own).
	Metrics *WorkerMetrics
}

// Worker pulls leased cells from a coordinator and executes them. Its
// failure contract is deliberately simple: it heartbeats while a cell
// runs, reports the outcome under the lease, and lets the coordinator
// own every scheduling decision — a worker that dies, hangs, or lies is
// discovered by lease expiry or completion validation, never trusted.
//
// When a lease carries a correlation ID the worker also records attempt
// and executing spans and ships them with the completion, so the
// coordinator's span log holds both sides of every hop; a lease without
// one (tracing disabled fleet-wide) records nothing.
type Worker struct {
	opt WorkerOptions
	hc  *http.Client

	killOnce sync.Once
	killed   chan struct{} // chaos: abandon everything, immediately
}

// NewWorker builds a worker.
func NewWorker(opt WorkerOptions) *Worker {
	if opt.ID == "" {
		host, _ := os.Hostname()
		opt.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opt.PollWait <= 0 {
		opt.PollWait = 2 * time.Second
	}
	if opt.Metrics == nil {
		opt.Metrics = &WorkerMetrics{}
	}
	return &Worker{opt: opt, hc: &http.Client{Timeout: 2 * time.Minute}, killed: make(chan struct{})}
}

// log emits one structured record when a logger is attached.
func (w *Worker) log(level slog.Level, msg string, args ...any) {
	if w.opt.Log != nil {
		w.opt.Log.Log(context.Background(), level, msg, args...)
	}
}

// Kill abandons the worker instantly — no completion, no further
// heartbeat, in-flight execution orphaned. It exists for the chaos
// harness (and is exactly what SIGKILL does to a worker process): the
// coordinator must recover via lease expiry alone.
func (w *Worker) Kill() {
	w.killOnce.Do(func() { close(w.killed) })
}

// outcome is a finished lease's result on its way to the coordinator.
type outcome struct {
	ls  *Lease
	req *CompleteRequest
}

// Run is the worker loop: lease, execute (heartbeating), repeat — each
// lease request delivering the outcome of the cell before it, so a cell
// costs the worker one round trip. Cancelling ctx is the graceful path,
// checked between requests: an in-flight cell runs to completion, a lease
// request carrying an outcome is let finish (the coordinator may already
// have applied it; aborting would only lose its answer), a cell that
// request brings back is run too, and an outcome not yet delivered goes
// out in a completion request of its own before Run returns. Run also
// returns when the coordinator reports it is draining, or on Kill (which
// delivers nothing).
func (w *Worker) Run(ctx context.Context) error {
	backoff := 50 * time.Millisecond
	var out *outcome // the previous lease's outcome, not yet delivered
	for {
		select {
		case <-w.killed:
			return nil
		default:
		}
		if ctx.Err() != nil {
			w.flush(out)
			return nil
		}
		reqCtx := ctx
		if out != nil {
			reqCtx = context.Background() // not aborted: see above
		}
		resp, err := w.lease(reqCtx, out)
		if err != nil {
			// The coordinator may or may not have applied the outcome the
			// request carried; it goes out again, and an outcome applied
			// twice is answered 410 the second time.
			if ctx.Err() == nil {
				w.log(slog.LevelWarn, "lease request failed",
					"worker", w.opt.ID, "error", err, "retry_in", backoff)
				w.sleep(ctx, backoff)
				backoff = min(2*backoff, 2*time.Second)
			}
			continue
		}
		backoff = 50 * time.Millisecond
		if out != nil {
			w.delivered(out, resp.DoneStatus)
			out = nil
		}
		if resp.Draining {
			w.log(slog.LevelInfo, "coordinator draining, exiting", "worker", w.opt.ID)
			return nil
		}
		if resp.Lease == nil {
			continue // long-poll expired dry; ask again
		}
		out = w.runLease(resp.Lease)
	}
}

// sleep waits d unless the worker is cancelled or killed first.
func (w *Worker) sleep(ctx context.Context, d time.Duration) {
	select {
	case <-time.After(d):
	case <-ctx.Done():
	case <-w.killed:
	}
}

// workerSpan builds one worker-side span for a traced lease.
func (w *Worker) workerSpan(ls *Lease, name string, start, end time.Time, note string) obs.Span {
	return obs.Span{
		CorrID:  ls.CorrID,
		CellID:  ls.CellID,
		Cell:    ls.Cell.String(),
		Name:    name,
		Src:     "worker:" + w.opt.ID,
		Attempt: ls.Attempt,
		StartUS: start.UnixMicro(),
		EndUS:   end.UnixMicro(),
		Note:    note,
	}
}

// runLease executes one leased cell while heartbeating and returns the
// outcome to deliver — nil when there is none: the lease was lost, or the
// worker killed. Execution runs on its own goroutine so a Kill abandons
// it mid-flight — exactly the orphaned-work shape a crashed process
// leaves.
func (w *Worker) runLease(ls *Lease) *outcome {
	type execResult struct {
		rec     *campaign.Record
		err     error
		started time.Time
		ended   time.Time
	}
	attemptStart := time.Now()
	if w.opt.Log != nil { // per cell: do not build the arguments for nobody
		w.log(slog.LevelDebug, "leased",
			"worker", w.opt.ID, "cell", ls.Cell.String(), "cell_id", ls.CellID,
			"lease", ls.LeaseID, "corr_id", ls.CorrID, "attempt", ls.Attempt)
	}
	execDone := make(chan execResult, 1)
	var ivDone, ivPlanned atomic.Uint64
	go func() {
		started := time.Now()
		rec, err := w.execIsolated(ls.Cell, func(done, planned int) {
			if done >= 0 {
				ivDone.Store(uint64(done))
			}
			if planned > 0 {
				ivPlanned.Store(uint64(planned))
			}
		})
		execDone <- execResult{rec, err, started, time.Now()}
	}()
	ttl := time.Duration(ls.TTLMS) * time.Millisecond
	hbEvery := ttl / 3
	if hbEvery < 10*time.Millisecond {
		hbEvery = 10 * time.Millisecond
	}
	hb := time.NewTicker(hbEvery)
	defer hb.Stop()
	lost := false
	for {
		select {
		case res := <-execDone:
			if lost {
				w.log(slog.LevelWarn, "lease lost, discarding result",
					"worker", w.opt.ID, "lease", ls.LeaseID, "cell", ls.Cell.String(), "corr_id", ls.CorrID)
				return nil
			}
			return w.outcomeOf(ls, res.rec, res.err, attemptStart, res.started, res.ended)
		case <-hb.C:
			if lost {
				continue
			}
			hbStart := time.Now()
			if gone, err := w.heartbeat(ls, ivDone.Load(), ivPlanned.Load()); gone {
				// The reaper requeued the cell; our eventual result would
				// be refused with 410. Let the execution finish (it cannot
				// be interrupted) but drop it.
				lost = true
				w.opt.Metrics.noteLeaseLost()
			} else if err != nil {
				w.log(slog.LevelWarn, "heartbeat failed",
					"worker", w.opt.ID, "lease", ls.LeaseID, "error", err)
			} else {
				w.opt.Metrics.noteHeartbeat(time.Since(hbStart))
			}
		case <-w.killed:
			return nil
		}
	}
}

func (m *WorkerMetrics) noteLeaseLost() { m.LeasesLost.Add(1) }

// execIsolated shields the worker loop from a panicking executor.
func (w *Worker) execIsolated(cell campaign.Cell, onInterval func(done, planned int)) (rec *campaign.Record, err error) {
	defer func() {
		if r := recover(); r != nil {
			rec, err = nil, fmt.Errorf("worker: panic executing %s: %v", cell, r)
		}
	}()
	if w.opt.ExecProgress != nil {
		return w.opt.ExecProgress(cell, onInterval)
	}
	return w.opt.Exec(cell)
}

// outcomeOf builds the completion for one executed lease. For traced
// leases it carries the worker's two spans: executing, and attempt
// (lease receipt → outcome ready to go out).
func (w *Worker) outcomeOf(ls *Lease, rec *campaign.Record, execErr error, attemptStart, execStart, execEnd time.Time) *outcome {
	req := &CompleteRequest{
		WorkerID: w.opt.ID,
		LeaseID:  ls.LeaseID,
	}
	stamp(&req.SchemaVersion)
	verdict := "ok"
	if execErr != nil {
		req.Error = execErr.Error()
		req.Transient = w.opt.Classify != nil && w.opt.Classify(execErr)
		verdict = "error: " + req.Error
	} else {
		rec.CellID = ls.CellID
		req.Record = rec
	}
	if ls.CorrID != "" {
		req.Spans = []obs.Span{
			w.workerSpan(ls, obs.SpanExecuting, execStart, execEnd, req.Error),
			w.workerSpan(ls, obs.SpanAttempt, attemptStart, time.Now(), verdict),
		}
	}
	return &outcome{ls: ls, req: req}
}

// delivered accounts for the coordinator's answer to an outcome, however
// it travelled. A 410 means the lease died while we computed (or the
// outcome had already arrived and its answer was lost); the coordinator
// has the cell in hand either way, so the result is dropped.
func (w *Worker) delivered(out *outcome, code int) {
	ls, failure := out.ls, out.req.Error
	switch code {
	case http.StatusOK:
		m := w.opt.Metrics
		m.CellsDone.Add(1)
		if failure != "" {
			m.CellsFailed.Add(1)
		} else {
			m.CellsOK.Add(1)
			if rec := out.req.Record; rec != nil {
				m.Instrs.Add(rec.Stats.Committed)
			}
		}
		if failure != "" {
			w.log(slog.LevelWarn, "completed with failure",
				"worker", w.opt.ID, "cell", ls.Cell.String(), "cell_id", ls.CellID,
				"corr_id", ls.CorrID, "error", failure)
		} else if w.opt.Log != nil { // per cell: do not build the arguments for nobody
			w.log(slog.LevelDebug, "completed",
				"worker", w.opt.ID, "cell", ls.Cell.String(), "cell_id", ls.CellID,
				"corr_id", ls.CorrID)
		}
	case http.StatusGone:
		w.opt.Metrics.noteLeaseLost()
		w.log(slog.LevelWarn, "completion refused, lease lost",
			"worker", w.opt.ID, "cell", ls.Cell.String(), "lease", ls.LeaseID, "corr_id", ls.CorrID)
	default:
		w.log(slog.LevelWarn, "completion rejected",
			"worker", w.opt.ID, "cell", ls.Cell.String(), "http_status", code)
	}
}

// flush delivers an outcome (if any) in a completion request of its own —
// the shutdown path, when no further lease request will carry it —
// retrying transport errors: the result embodies real simulation time
// and is worth fighting for.
func (w *Worker) flush(out *outcome) {
	if out == nil {
		return
	}
	backoff := 100 * time.Millisecond
	for attempt := 1; ; attempt++ {
		code, err := w.post(PathComplete, out.ls.CorrID, out.req, nil)
		if err == nil {
			w.delivered(out, code)
			return
		}
		if attempt >= 5 {
			w.log(slog.LevelWarn, "giving up delivering completion",
				"worker", w.opt.ID, "cell", out.ls.Cell.String(), "error", err)
			return
		}
		select {
		case <-time.After(backoff):
		case <-w.killed:
			return
		}
		backoff = min(2*backoff, 2*time.Second)
	}
}

// lease asks the coordinator for work, long-polling; out, when non-nil,
// rides along as the previous lease's outcome.
func (w *Worker) lease(ctx context.Context, out *outcome) (*LeaseResponse, error) {
	req := LeaseRequest{WorkerID: w.opt.ID, WaitMS: w.opt.PollWait.Milliseconds()}
	if out != nil {
		req.Done = out.req
	}
	stamp(&req.SchemaVersion)
	var resp LeaseResponse
	if _, err := w.postCtx(ctx, PathLease, "", &req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// heartbeat extends the lease, carrying the cell's sampled-interval
// progress when there is any; gone=true means the coordinator no longer
// recognizes it.
func (w *Worker) heartbeat(ls *Lease, ivDone, ivPlanned uint64) (gone bool, err error) {
	req := HeartbeatRequest{
		WorkerID: w.opt.ID, LeaseID: ls.LeaseID,
		IntervalsDone: ivDone, IntervalsPlanned: ivPlanned,
	}
	stamp(&req.SchemaVersion)
	code, err := w.post(PathHeartbeat, ls.CorrID, &req, nil)
	if err != nil {
		return false, err
	}
	return code == http.StatusGone, nil
}

func (w *Worker) post(path, corr string, body, out any) (int, error) {
	return w.postCtx(context.Background(), path, corr, body, out)
}

func (w *Worker) postCtx(ctx context.Context, path, corr string, body, out any) (int, error) {
	req, err := newRequest(ctx, http.MethodPost, w.opt.Server+path, body)
	if err != nil {
		return 0, err
	}
	if corr != "" {
		req.Header.Set(obs.CorrHeader, corr)
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch {
	case out == nil:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	case resp.StatusCode == http.StatusOK:
		if err := readJSON(resp.Body, out); err != nil {
			return resp.StatusCode, err
		}
	default:
		// A refusal where an answer was expected is an error in the
		// coordinator's own words (a version mismatch names both versions).
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp.StatusCode, nil
}

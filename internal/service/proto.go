// Package service lifts the campaign engine across a network boundary:
// a stdlib-net/http coordinator schedules campaign cells onto a fleet of
// worker processes with leases, a unified retry policy, backpressure,
// and graceful degradation, serving results out of the same shared
// content-addressed store the in-process engine uses — so a sweep
// executed by a fleet is byte-identical to one executed serially, and a
// worker lost mid-cell costs one lease timeout, never a wrong or
// missing record.
//
// The protocol is deliberately minimal JSON-over-HTTP:
//
//	POST /api/v1/cells      submit cells (429 + Retry-After on overload);
//	                        with wait_ms, long-polls and answers their results
//	POST /api/v1/lease      claim a cell under a deadline (long-polls);
//	                        with done, first delivers the previous outcome
//	POST /api/v1/heartbeat  extend a lease (410 Gone when it was lost)
//	POST /api/v1/complete   deliver a record or a classified failure
//	GET  /api/v1/result     fetch/await one cell's outcome
//	GET  /api/v1/stats      queue depth, leases, retries, requeues
//	GET  /api/v1/events     SSE lifecycle-event stream (DESIGN.md §11)
//	GET  /metrics           Prometheus text exposition
//	GET  /healthz           liveness
//
// A cell in steady state costs two round trips (DESIGN.md §10.6): the
// client's one waiting submit, and the worker's one lease request that
// carries the outcome of the cell before. /complete and /result remain
// for what those cannot cover — a worker flushing its last outcome at
// shutdown, a client whose wait elapsed — and for protocol-v3 peers,
// which use nothing else. Bodies are compact JSON.
//
// Safety rests on invariants the store already guarantees: records are
// schema-versioned and content-addressed by deterministic cell IDs,
// failures are never persisted, and writes are atomic — so re-dispatch
// after any fault (lost worker, stale lease, corrupt completion) is
// always safe, and overlapping sweeps from different clients dedup for
// free.
package service

import (
	"encoding/json"
	"errors"
	"fmt"

	"largewindow/internal/campaign"
	"largewindow/internal/obs"
	"largewindow/internal/schema"
)

// Wire paths of the coordinator API.
const (
	PathSubmit    = "/api/v1/cells"
	PathLease     = "/api/v1/lease"
	PathHeartbeat = "/api/v1/heartbeat"
	PathComplete  = "/api/v1/complete"
	PathResult    = "/api/v1/result"
	PathStats     = "/api/v1/stats"
	PathEvents    = "/api/v1/events"
	PathMetrics   = "/metrics"
	PathHealth    = "/healthz"
)

// SubmitRequest submits cells for execution. Submission is idempotent:
// cells are deduplicated by content ID, so re-submitting a sweep (or two
// clients submitting overlapping sweeps) never duplicates work.
type SubmitRequest struct {
	SchemaVersion int             `json:"schema_version"`
	Cells         []campaign.Cell `json:"cells"`
	// CorrID is the campaign correlation ID minted client-side at
	// submit; it also rides the obs.CorrHeader HTTP header. Empty means
	// the coordinator mints one (when tracing is enabled). Cells already
	// known keep their original correlation.
	CorrID string `json:"corr_id,omitempty"`
	// ModelPruned/ModelAudited report a model-pruned sweep's accounting
	// alongside the cells it did submit: how many grid cells the interval
	// model answered without simulation, and how many of those are in
	// this submission as an audit slice. The coordinator folds them into
	// its progress snapshots and publishes a prune lifecycle event.
	// Additive fields; absent (zero) for ordinary submissions.
	ModelPruned  uint64 `json:"model_pruned,omitempty"`
	ModelAudited uint64 `json:"model_audited,omitempty"`
	// WaitMS > 0 makes the submission a long poll (protocol v4): the
	// coordinator answers once every submitted cell has finished, or
	// after WaitMS milliseconds, and the response reports each cell in
	// Results. Zero answers at once, without Results.
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// SubmitResponse acknowledges a submission.
type SubmitResponse = submitResponse[*campaign.Record]

// ResultResponse reports one cell's current outcome.
type ResultResponse = resultResponse[*campaign.Record]

// submitResponse and resultResponse define the two result-carrying wire
// shapes once for both ends of the wire: a client decodes the record
// (R = *campaign.Record), the coordinator writes the encoding it made
// when the cell completed (R = json.RawMessage) instead of encoding the
// record again for every response.
type submitResponse[R any] struct {
	SchemaVersion int `json:"schema_version"`
	// IDs are the content IDs of the submitted cells, in request order.
	IDs []string `json:"ids"`
	// Enqueued counts cells this request actually added to the queue
	// (the rest were already known: queued, running, done, or served
	// from the store).
	Enqueued int `json:"enqueued"`
	// Results reports every submitted cell, in request order, as it
	// stood when a waiting submission (SubmitRequest.WaitMS) was
	// answered; a cell still pending or running then is awaited through
	// PathResult. Absent when the request did not wait.
	Results []resultResponse[R] `json:"results,omitempty"`
}

type resultResponse[R any] struct {
	SchemaVersion int    `json:"schema_version"`
	CellID        string `json:"cell_id"`
	Status        string `json:"status"`
	Record        R      `json:"record,omitempty"`
	Error         string `json:"error,omitempty"`
	// Attempts counts dispatches of this cell so far (re-dispatch after
	// lost workers and transient failures included).
	Attempts int `json:"attempts,omitempty"`
}

// encodedRecord is a finished record as json.Marshal wrote it.
type encodedRecord = json.RawMessage

// LeaseRequest asks for one cell of work. The coordinator long-polls up
// to WaitMS milliseconds before answering "no work" so an idle fleet
// does not hammer the queue.
type LeaseRequest struct {
	SchemaVersion int    `json:"schema_version"`
	WorkerID      string `json:"worker_id"`
	WaitMS        int64  `json:"wait_ms,omitempty"`
	// Done is the outcome of the worker's previous lease (protocol v4),
	// applied before the long poll starts exactly as a PathComplete
	// request would be; LeaseResponse.DoneStatus answers it.
	Done *CompleteRequest `json:"done,omitempty"`
}

// Lease is one dispatched cell: the work plus the deadline contract. The
// worker must heartbeat before TTLMS elapses or the coordinator returns
// the cell to the queue and the lease dies — a completion under a dead
// lease is refused with 410 Gone.
type Lease struct {
	LeaseID string        `json:"lease_id"`
	CellID  string        `json:"cell_id"`
	Cell    campaign.Cell `json:"cell"`
	// Attempt is 1 on first dispatch and grows with every requeue or
	// retry, so workers can log re-dispatches visibly.
	Attempt int   `json:"attempt"`
	TTLMS   int64 `json:"ttl_ms"`
	// CorrID propagates the cell's campaign correlation ID to the
	// worker, which stamps it on every span and log line it records.
	CorrID string `json:"corr_id,omitempty"`
}

// LeaseResponse carries a lease, or none when the queue is dry. Draining
// tells the worker the coordinator is shutting down and no further work
// will ever arrive.
type LeaseResponse struct {
	SchemaVersion int    `json:"schema_version"`
	Lease         *Lease `json:"lease,omitempty"`
	Draining      bool   `json:"draining,omitempty"`
	// DoneStatus answers LeaseRequest.Done with the HTTP status a
	// PathComplete request would have got: 200 accepted, 410 the lease
	// was no longer held (expired, or this outcome was already applied
	// and the answer lost). Zero when the request carried no outcome.
	DoneStatus int `json:"done_status,omitempty"`
}

// HeartbeatRequest extends a lease's deadline. Sampled cells
// additionally report measured-interval progress (additive fields, zero
// for detailed cells), which the coordinator folds into its fleet ETA
// as fractional in-flight credit.
type HeartbeatRequest struct {
	SchemaVersion int    `json:"schema_version"`
	WorkerID      string `json:"worker_id"`
	LeaseID       string `json:"lease_id"`
	// IntervalsDone/IntervalsPlanned are the leased cell's sampled-run
	// progress at heartbeat time: done of planned measured windows.
	IntervalsDone    uint64 `json:"intervals_done,omitempty"`
	IntervalsPlanned uint64 `json:"intervals_planned,omitempty"`
}

// CompleteRequest delivers one leased cell's outcome: a record on
// success, or an error string plus the worker's transient/permanent
// classification on failure (the coordinator's retry policy decides
// whether a transient failure is re-dispatched). It is the body of
// PathComplete and, as LeaseRequest.Done, rides the worker's next lease
// request.
type CompleteRequest struct {
	SchemaVersion int              `json:"schema_version"`
	WorkerID      string           `json:"worker_id"`
	LeaseID       string           `json:"lease_id"`
	Record        *campaign.Record `json:"record,omitempty"`
	Error         string           `json:"error,omitempty"`
	Transient     bool             `json:"transient,omitempty"`
	// Spans are the worker-side lifecycle spans of this attempt
	// (executing, attempt), merged into the coordinator's span log so
	// `wibtrace -fleet` can stitch one timeline across the fleet. The
	// coordinator drops them silently when span logging is disabled.
	Spans []obs.Span `json:"spans,omitempty"`
}

// Cell lifecycle states reported by ResultResponse.Status.
const (
	StatusPending = "pending" // queued (or backing off before a retry)
	StatusRunning = "running" // leased to a worker
	StatusDone    = "done"    // record available
	StatusFailed  = "failed"  // permanently failed (retry budget exhausted)
)

// StatsResponse is the coordinator's point-in-time health snapshot,
// mirroring its telemetry counters.
type StatsResponse struct {
	SchemaVersion int    `json:"schema_version"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCap      int    `json:"queue_cap"`
	ActiveLeases  int    `json:"active_leases"`
	Submitted     uint64 `json:"submitted"`
	Completed     uint64 `json:"completed"`
	Failed        uint64 `json:"failed"`
	CacheHits     uint64 `json:"cache_hits"`
	Retries       uint64 `json:"retries"`                 // re-dispatches after classified-transient failures
	Requeues      uint64 `json:"requeues"`                // cells returned to the queue by lease expiry
	LeaseExpiries uint64 `json:"lease_expiries"`          // leases reaped (== lost/hung workers observed)
	Rejected      uint64 `json:"rejected"`                // submissions bounced by backpressure
	Instrs        uint64 `json:"instrs,omitempty"`        // simulated instructions across completed cells
	ModelPruned   uint64 `json:"model_pruned,omitempty"`  // cells answered by the interval model
	ModelAudited  uint64 `json:"model_audited,omitempty"` // pruned cells simulated to audit the model
	Draining      bool   `json:"draining"`
}

// Summary renders the coordinator's outcome counters the way both
// commands that print them (wibserve's exit line, experiments -server)
// word them; the check gate greps these figures.
func (s StatsResponse) Summary() string {
	return fmt.Sprintf("%d completed, %d failed, %d cache hits, %d retries, %d requeues, %d lease expiries",
		s.Completed, s.Failed, s.CacheHits, s.Retries, s.Requeues, s.LeaseExpiries)
}

// stamp fills the schema version of an outgoing body.
func stamp(v *int) { *v = schema.ServiceVersion }

// RemoteError is a classified failure returned by the client tier.
// Transport faults and backpressure are transient (the campaign engine's
// retry policy may re-dispatch); a failure the coordinator itself
// reported as permanent is not.
type RemoteError struct {
	Op        string
	Err       error
	Transient bool
}

func (e *RemoteError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("service: %s: %v (%s)", e.Op, e.Err, kind)
}

func (e *RemoteError) Unwrap() error { return e.Err }

// IsTransient classifies client-tier errors for campaign.RetryPolicy:
// true exactly for RemoteErrors marked transient.
func IsTransient(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Transient
}

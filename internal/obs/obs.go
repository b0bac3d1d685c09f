// Package obs is the fleet observability layer for the distributed
// campaign service (DESIGN.md §11): Prometheus-text metrics exposition
// over telemetry registries, a schema-versioned SSE lifecycle-event
// stream with slow-client drop protection, and distributed
// cell-lifecycle span logs correlated end-to-end by IDs minted at
// submit and propagated through every hop — stitched into one Chrome
// trace by `wibtrace -fleet`.
//
// Like internal/telemetry's probes, the package is zero-cost when
// disabled: the service tier holds nil *Bus / *SpanLog pointers and guards
// every publish with a single nil check, so a fleet run with observability
// off pays only untaken branches (the overhead gate in
// internal/service proves it).
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"math"
)

// CorrHeader is the HTTP header carrying a campaign correlation ID
// across hops: client → coordinator at submit, coordinator → worker in
// the lease body, worker → coordinator on heartbeat and completion.
const CorrHeader = "X-Wib-Corr-Id"

// NewCorrID mints a fresh correlation ID (16 hex chars).
func NewCorrID() string {
	var raw [8]byte
	rand.Read(raw[:])
	return hex.EncodeToString(raw[:])
}

// Lifecycle event types carried by Event.Type. A consumer must ignore
// types it does not recognize — new lifecycle stages may appear under
// the same schema version.
const (
	EventSubmit    = "submit"    // cell entered the queue
	EventLease     = "lease"     // cell dispatched to a worker
	EventHeartbeat = "heartbeat" // worker extended its lease
	EventRequeue   = "requeue"   // lease expired, cell returned to queue
	EventRetry     = "retry"     // transient failure, cell re-dispatched
	EventComplete  = "complete"  // record persisted and visible
	EventFail      = "fail"      // cell permanently failed
	EventProgress  = "progress"  // periodic fleet progress snapshot
	EventPrune     = "prune"     // model-pruned submit: cells answered by the interval model
	EventDrain     = "drain"     // coordinator entered graceful shutdown
	EventGap       = "gap"       // this subscriber missed Dropped events
)

// Event is one schema-versioned record of the coordinator's lifecycle
// stream, serialized as JSON lines over SSE. Seq is a per-bus sequence
// number: a subscriber observing a gap in Seq (or an explicit gap
// event) knows it was too slow and events were dropped rather than
// delayed.
type Event struct {
	SchemaVersion int    `json:"schema_version"`
	Seq           uint64 `json:"seq"`
	TimeUS        int64  `json:"time_us"` // unix microseconds
	Type          string `json:"type"`

	CellID  string `json:"cell_id,omitempty"`
	Cell    string `json:"cell,omitempty"`
	CorrID  string `json:"corr_id,omitempty"`
	Worker  string `json:"worker,omitempty"`
	LeaseID string `json:"lease_id,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Error   string `json:"error,omitempty"`
	Note    string `json:"note,omitempty"`

	// Dropped is set on gap events: how many events this subscriber
	// missed since its last delivery.
	Dropped uint64 `json:"dropped,omitempty"`

	// Progress rides progress events only.
	Progress *Progress `json:"progress,omitempty"`
}

// Progress is the periodic fleet snapshot broadcast on the event
// stream: what a dashboard needs to render "cells done, instrs/s, ETA"
// without scraping /metrics.
type Progress struct {
	Submitted    uint64  `json:"submitted"`
	Done         uint64  `json:"done"`
	Failed       uint64  `json:"failed"`
	Running      int     `json:"running"`
	QueueDepth   int     `json:"queue_depth"`
	CacheHits    uint64  `json:"cache_hits"`
	Retries      uint64  `json:"retries"`
	Requeues     uint64  `json:"requeues"`
	Instrs       uint64  `json:"instrs"`
	InstrsPerSec float64 `json:"instrs_per_sec"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	// ETASec is the extrapolated seconds to completion; negative means
	// unknown (nothing finished yet, or nothing left).
	ETASec float64 `json:"eta_sec"`

	// Sampled-campaign interval progress, summed over in-flight leases
	// from worker heartbeats. Zero outside sampled sweeps.
	IntervalsDone    uint64 `json:"intervals_done,omitempty"`
	IntervalsPlanned uint64 `json:"intervals_planned,omitempty"`

	// Model-pruned sweep accounting: cells the interval model answered in
	// place of detailed simulation, and the audit subset simulated anyway
	// to measure live model error. Zero outside pruned sweeps.
	ModelPruned  uint64 `json:"model_pruned,omitempty"`
	ModelAudited uint64 `json:"model_audited,omitempty"`
}

// SaneRate divides total by secs, mapping every degenerate shape
// (zero or negative elapsed, non-finite quotient) to 0 so rendered
// rates never show NaN/Inf/negative.
func SaneRate(total float64, secs float64) float64 {
	if secs <= 0 || total < 0 {
		return 0
	}
	r := total / secs
	if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
		return 0
	}
	return r
}

// SaneETAFrac extrapolates seconds-to-completion from done/total
// progress over elapsed seconds. done may include partial credit for
// in-flight cells (a sampled cell 30/100 intervals in counts 0.3), which
// keeps long-cell fleet ETAs from sawtoothing between heartbeats. It
// returns -1 (unknown) whenever the inputs cannot support a sane
// estimate: nothing finished, already finished, or degenerate elapsed
// time.
func SaneETAFrac(done float64, total uint64, elapsedSec float64) float64 {
	if done <= 0 || float64(total) <= done || elapsedSec <= 0 {
		return -1
	}
	eta := elapsedSec / done * (float64(total) - done)
	if math.IsNaN(eta) || math.IsInf(eta, 0) || eta < 0 {
		return -1
	}
	return eta
}

// NewLogger builds the CLI tier's structured logger: "text" for the
// human-readable default, "json" for machine-shipped logs. verbose
// lowers the floor to Debug (routine lease/dispatch traffic); otherwise
// only Info and worse surface, keeping quiet runs quiet.
func NewLogger(w io.Writer, format string, verbose bool) (*slog.Logger, error) {
	level := slog.LevelInfo
	if verbose {
		level = slog.LevelDebug
	}
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
}

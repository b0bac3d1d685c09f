package core

import (
	"encoding/json"
	"fmt"
	"runtime/debug"

	"largewindow/internal/schema"
)

// This file defines the structured failure model of the simulator. Any
// invariant violation inside the core panics with a typed *SimPanic; the
// top of Processor.Run recovers it into a *SimError carrying the machine
// state needed to diagnose and reproduce the failure (kind, cycle, seq,
// a pipeline dump, and the recent-event ring). Watchdog and deadline
// failures produce the same error shape without a panic, so every
// abnormal outcome of a run is machine readable.

// ErrKind classifies a structured simulation failure.
type ErrKind string

// Failure kinds. Invariant kinds name the corrupted structure; the
// remaining kinds describe runtime conditions.
const (
	// Invariant-checker kinds (Config.Debug per-cycle checks).
	KindROBFreeEntry   ErrKind = "rob-free-entry"     // live ROB slot marked free
	KindIQCount        ErrKind = "iq-count"           // issue-queue occupancy mismatch
	KindIQRequestMap   ErrKind = "iq-request-map"     // issue-request bitmap != stRequest entries of the queue
	KindWIBOccupancy   ErrKind = "wib-occupancy"      // WIB occupancy mismatch
	KindWIBColumns     ErrKind = "wib-columns"        // bit-vector column leaked
	KindWIBEligibleMap ErrKind = "wib-eligible-map"   // banked eligible bitmap != stEligible entries
	KindLQCount        ErrKind = "lq-count"           // load-queue count mismatch
	KindSQCount        ErrKind = "sq-count"           // store-queue count mismatch
	KindSQUnresolved   ErrKind = "sq-unresolved"      // unresolved-store count mismatch
	KindSQAddrIndex    ErrKind = "sq-addr-index"      // resolved-store address counts mismatch
	KindLQAddrIndex    ErrKind = "lq-addr-index"      // executed-load address counts mismatch
	KindPoolLeak       ErrKind = "pool-blocks-leak"   // §3.5 block pool not conserved
	KindFreeListDouble ErrKind = "free-list-double"   // phys reg on the free list twice
	KindMapToFree      ErrKind = "map-to-free"        // rename map points at a free reg
	KindInFlightFree   ErrKind = "inflight-dest-free" // in-flight dest reg is free

	// Always-on structural kinds (checked on the operation itself).
	KindRegDoubleFree  ErrKind = "reg-double-free"         // freePhys on a free register
	KindLSQOverflow    ErrKind = "lsq-overflow"            // alloc past LQ/SQ capacity
	KindLSQDoubleFree  ErrKind = "lsq-double-free"         // release of an invalid slot
	KindWIBBadColumn   ErrKind = "wib-bad-column"          // park/complete on inactive column
	KindWIBUnderflow   ErrKind = "wib-occupancy-underflow" // unpark below zero
	KindWIBEligibleBit ErrKind = "wib-eligible-bit"        // eligible bit set twice, or cleared while clear

	// Runtime conditions.
	KindDeadlock         ErrKind = "deadlock"            // no commit progress (watchdog)
	KindOracleDivergence ErrKind = "oracle-divergence"   // commit disagrees with internal/emu
	KindDeadline         ErrKind = "wall-clock-deadline" // context deadline exceeded
	KindPanic            ErrKind = "panic"               // untyped panic recovered in Run
)

// SimPanic is the typed value the core panics with on an invariant
// violation. Processor.Run recovers it into a *SimError that carries the
// surrounding machine state; code outside a run sees a regular panic with
// a readable message.
type SimPanic struct {
	Kind ErrKind
	Seq  uint64 // offending instruction, when one is identifiable
	Msg  string
}

func (sp *SimPanic) Error() string { return fmt.Sprintf("core: [%s] %s", sp.Kind, sp.Msg) }

// throw panics with a typed SimPanic; the enclosing Run recovers it.
func throw(kind ErrKind, seq uint64, format string, args ...interface{}) {
	panic(&SimPanic{Kind: kind, Seq: seq, Msg: fmt.Sprintf(format, args...)})
}

// RingEvent is one entry of the recent-event ring: low-frequency pipeline
// events (recoveries, replays, evictions, injections) kept for crash
// dumps.
type RingEvent struct {
	Cycle int64  `json:"cycle"`
	Kind  string `json:"kind"`
	Seq   uint64 `json:"seq"`
	PC    uint64 `json:"pc"`
}

func (e RingEvent) String() string {
	return fmt.Sprintf("cycle=%d %s seq=%d pc=%d", e.Cycle, e.Kind, e.Seq, e.PC)
}

// ringCapacity bounds the recent-event ring attached to crash dumps.
const ringCapacity = 96

// eventRing is a fixed-capacity ring of recent pipeline events.
type eventRing struct {
	buf    [ringCapacity]RingEvent
	next   int
	filled bool
}

func (r *eventRing) note(cycle int64, kind string, seq, pc uint64) {
	r.buf[r.next] = RingEvent{Cycle: cycle, Kind: kind, Seq: seq, PC: pc}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.filled = true
	}
}

// snapshot returns the ring's contents oldest-first.
func (r *eventRing) snapshot() []RingEvent {
	if !r.filled {
		return append([]RingEvent(nil), r.buf[:r.next]...)
	}
	out := make([]RingEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// note records a low-frequency pipeline event for crash dumps.
func (p *Processor) note(kind string, seq, pc uint64) {
	p.ring.note(p.now, kind, seq, pc)
}

// StallInfo describes the oldest non-progressing active-list entry when
// the forward-progress watchdog fires.
type StallInfo struct {
	ROB    int32  `json:"rob"`
	Seq    uint64 `json:"seq"`
	PC     uint64 `json:"pc"`
	Instr  string `json:"instr"`
	Stage  string `json:"stage"`
	Reason string `json:"reason"`
}

// SimError is a structured, serializable simulation failure. It is
// returned by Processor.Run for invariant panics, watchdog deadlocks,
// oracle divergence, and wall-clock deadline hits, and by the harness for
// any failed (benchmark × configuration) cell.
type SimError struct {
	// SchemaVersion stamps JSON crash dumps (schema.CrashDumpVersion);
	// 0 marks a legacy pre-versioning dump, still accepted on decode.
	SchemaVersion int         `json:"schema_version,omitempty"`
	Kind          ErrKind     `json:"kind"`
	Msg           string      `json:"msg"`
	Cycle         int64       `json:"cycle"`
	Seq           uint64      `json:"seq,omitempty"`
	PC            uint64      `json:"pc,omitempty"`
	Config        string      `json:"config"`
	Bench         string      `json:"bench,omitempty"`
	Scale         string      `json:"scale,omitempty"`
	Committed     uint64      `json:"committed"`
	Transient     bool        `json:"transient,omitempty"`
	Stall         *StallInfo  `json:"stall,omitempty"`
	Events        []RingEvent `json:"events,omitempty"`
	Dump          string      `json:"dump,omitempty"`
	Stack         string      `json:"stack,omitempty"`

	base error // wrapped sentinel (ErrDeadlock, context.DeadlineExceeded, ...)
}

func (e *SimError) Error() string {
	s := fmt.Sprintf("core: [%s] %s (cycle %d", e.Kind, e.Msg, e.Cycle)
	if e.Seq != 0 {
		s += fmt.Sprintf(", seq %d", e.Seq)
	}
	if e.Config != "" {
		s += ", config " + e.Config
	}
	return s + ")"
}

func (e *SimError) Unwrap() error { return e.base }

// JSON serializes the error (indented) for crash-dump files replayable
// with `wibtrace -replay`. Dumps are stamped with the current crash-dump
// schema version.
func (e *SimError) JSON() ([]byte, error) {
	stamped := *e
	stamped.SchemaVersion = schema.CrashDumpVersion
	return json.MarshalIndent(&stamped, "", "  ")
}

// DecodeSimError parses a crash dump produced by SimError.JSON. Dumps
// from any schema version up to the current one decode (version 0 is the
// legacy unversioned encoding); newer versions are rejected.
func DecodeSimError(data []byte) (*SimError, error) {
	var e SimError
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("core: bad crash dump: %w", err)
	}
	if err := schema.Check(e.SchemaVersion, schema.CrashDumpVersion, "crash dump"); err != nil {
		return nil, err
	}
	return &e, nil
}

// newSimError builds a SimError stamped with the machine's current state:
// cycle, config, commit count, a pipeline dump, and the event ring.
func (p *Processor) newSimError(kind ErrKind, seq uint64, msg string) *SimError {
	return &SimError{
		Kind:      kind,
		Msg:       msg,
		Cycle:     p.now,
		Seq:       seq,
		PC:        p.pcOfSeq(seq),
		Config:    p.cfg.Name,
		Committed: p.stats.Committed,
		Events:    p.ring.snapshot(),
		Dump:      p.safeDump(16),
	}
}

// safeDump renders the pipeline dump for a crash report. The machine is
// by definition corrupted at this point, so the dump itself may panic;
// a dump that cannot be rendered must not mask the original failure.
func (p *Processor) safeDump(n int) (s string) {
	defer func() {
		if r := recover(); r != nil {
			s = fmt.Sprintf("(pipeline dump unavailable: %v)", r)
		}
	}()
	return p.DebugDump(n)
}

// recoveredError converts a recovered panic value into a *SimError.
func (p *Processor) recoveredError(r interface{}) *SimError {
	if sp, ok := r.(*SimPanic); ok {
		return p.newSimError(sp.Kind, sp.Seq, sp.Msg)
	}
	se := p.newSimError(KindPanic, 0, fmt.Sprint(r))
	se.Stack = string(debug.Stack())
	return se
}

// pcOfSeq finds the PC of an in-flight instruction by sequence number
// (zero when the sequence no longer names a live entry).
func (p *Processor) pcOfSeq(seq uint64) uint64 {
	if seq == 0 {
		return 0
	}
	size := int32(len(p.rob))
	if size == 0 {
		return 0
	}
	for i := int32(0); i < p.robCount; i++ {
		e := &p.rob[(p.robHead+i)%size]
		if e.seq == seq {
			return e.pc
		}
	}
	return 0
}

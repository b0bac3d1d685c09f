package core

import "largewindow/internal/telemetry"

// This file wires the observability layer through the core. The design
// rule is zero cost when disabled: the Processor holds a *telemetryState
// that is nil unless AttachTelemetry was called, and every probe in the
// pipeline is guarded by a single `p.tel != nil` check. Counters on the
// hot paths are cached as struct fields so the per-event cost is one
// branch plus one increment — no map lookups.

// telemetryState caches the hot-path metric handles of one attached
// collector.
type telemetryState struct {
	col *telemetry.Collector

	cFetched  *telemetry.Counter // instructions entering the fetch queue
	cDispatch *telemetry.Counter // instructions renamed into the active list
	cIssue    *telemetry.Counter // issue slots consumed (incl. WIB moves)
	cCommit   *telemetry.Counter // instructions retired
	cSquash   *telemetry.Counter // instructions squashed (ROB + fetch queue)
	cPark     *telemetry.Counter // WIB insertions
	cReinsert *telemetry.Counter // WIB reinsertions into an issue queue

	hLoadLat *telemetry.Histogram // load issue→data latency, cycles
}

// rfTelemetry is implemented by register-file models that publish metrics.
type rfTelemetry interface {
	AttachTelemetry(reg *telemetry.Registry, prefix string)
}

// AttachTelemetry connects a collector to this processor: pipeline
// counters and occupancy gauges from the core, plus the memory hierarchy,
// branch predictor, and register-file metrics. Call it once, before Run;
// the caller owns the collector's lifetime and must Close it (with the
// final cycle count) after the run to flush the sample stream.
func (p *Processor) AttachTelemetry(col *telemetry.Collector) {
	reg := col.Registry()
	t := &telemetryState{
		col:       col,
		cFetched:  reg.Counter("core.fetch.instrs"),
		cDispatch: reg.Counter("core.dispatch.instrs"),
		cIssue:    reg.Counter("core.issue.slots"),
		cCommit:   reg.Counter("core.commit.instrs"),
		cSquash:   reg.Counter("core.squash.instrs"),
		cPark:     reg.Counter("wib.insertions"),
		cReinsert: reg.Counter("wib.reinsertions"),
		hLoadLat:  reg.Histogram("mem.load.latency", 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
	}

	reg.Gauge("core.ipc", func(cycle int64) float64 {
		if cycle <= 0 {
			return 0
		}
		return float64(p.stats.Committed) / float64(cycle)
	})
	reg.Gauge("core.rob.occupancy", func(int64) float64 { return float64(p.robCount) })
	reg.Gauge("core.iq.int.occupancy", func(int64) float64 { return float64(p.intIQ.count) })
	reg.Gauge("core.iq.fp.occupancy", func(int64) float64 { return float64(p.fpIQ.count) })
	reg.Gauge("core.ifq.occupancy", func(int64) float64 { return float64(p.ifqN) })
	reg.Gauge("mem.mlp.outstanding", func(int64) float64 { return float64(p.l2MissReady.Len()) })
	if p.wib != nil {
		reg.Gauge("wib.occupancy", func(int64) float64 { return float64(p.wib.occupancy) })
		reg.Gauge("wib.bitvectors.free", func(int64) float64 { return float64(len(p.wib.free)) })
	}

	p.hier.AttachTelemetry(reg)
	p.bp.AttachTelemetry(reg)
	for i, name := range [2]string{"regfile.int", "regfile.fp"} {
		if rf, ok := p.regs[i].rf.(rfTelemetry); ok {
			rf.AttachTelemetry(reg, name)
		}
	}
	p.tel = t
}

// TraceRecords converts the core's archived lifecycle traces into the
// telemetry layer's renderer-ready records (Chrome trace, Kanata view).
func TraceRecords(traces []InstrTrace) []telemetry.InstrRecord {
	out := make([]telemetry.InstrRecord, len(traces))
	for i := range traces {
		t := &traces[i]
		out[i] = telemetry.InstrRecord{
			Seq:       t.Seq,
			PC:        t.PC,
			Disasm:    t.Instr.String(),
			Fetched:   t.Fetched,
			Dispatch:  t.Dispatch,
			Issued:    t.Issued,
			Completed: t.Completed,
			Committed: t.Committed,
			Parks:     t.Parks,
			Reinserts: t.Reinserts,
			Squashed:  t.Squashed,
			SquashCyc: t.SquashCyc,
		}
	}
	return out
}

// int64Before orders the l2MissReady min-heap of cycle numbers
// (outstanding L2-miss fill completion times).
func int64Before(a, b int64) bool { return a < b }

// noteL2Miss records a newly issued demand load that missed in the L2,
// outstanding until cycle ready. The fill completes regardless of
// squashes (the hardware does not cancel it), so no seq guard is needed.
func (p *Processor) noteL2Miss(ready int64) {
	p.l2MissReady.Push(ready)
}

// accountMLP retires completed fills and accumulates the paper's §2
// motivation metric: the number of outstanding L2 load misses, averaged
// over cycles during which at least one is outstanding, plus its peak.
func (p *Processor) accountMLP() {
	for p.l2MissReady.Len() > 0 && p.l2MissReady.Peek() <= p.now {
		p.l2MissReady.Pop()
	}
	if n := p.l2MissReady.Len(); n > 0 {
		p.stats.mlpSum += uint64(n)
		p.stats.mlpCycles++
		if n > p.stats.MLPPeak {
			p.stats.MLPPeak = n
		}
	}
}

package core

import "largewindow/internal/telemetry"

// This file wires the observability layer through the core. A machine
// event is counted once: every counter series is a CounterFunc over a
// field the core keeps whether or not anyone is watching (Stats, the
// dispatch sequence number, issueSlots), read at sample time, so a series
// cannot disagree with the end-of-run report. Only what has no such field
// is a probe, behind a nil check of p.tel: the sampler's per-cycle Tick,
// its CatchUp across a fast-forwarded idle stretch, and the load-latency
// histogram.

// telemetryState is one attached collector and the one metric the core
// must push into it.
type telemetryState struct {
	col      *telemetry.Collector
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
	st := &p.stats
	reg.CounterFunc("core.fetch.instrs", func() uint64 { return st.FetchedInstrs })
	// Every instruction renamed into the active list takes the next
	// sequence number, and numbers are never reused.
	reg.CounterFunc("core.dispatch.instrs", func() uint64 { return p.nextSeq - 1 })
	reg.CounterFunc("core.issue.slots", func() uint64 { return p.issueSlots })
	reg.CounterFunc("core.commit.instrs", func() uint64 { return st.Committed })
	reg.CounterFunc("core.squash.instrs", func() uint64 { return st.SquashedInstrs }) // active list + fetch queue
	reg.CounterFunc("wib.insertions", func() uint64 { return st.WIBInsertions })
	reg.CounterFunc("wib.reinsertions", func() uint64 { return st.WIBReinsertions })
	t := &telemetryState{
		col:      col,
		hLoadLat: reg.Histogram("mem.load.latency", 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
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

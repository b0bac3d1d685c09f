package mem

import (
	"fmt"

	"largewindow/internal/heap"
	"largewindow/internal/telemetry"
)

// Config sizes the whole memory system. DefaultConfig reproduces paper
// Table 1.
type Config struct {
	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig

	L1Latency  int64 // cycles for an L1 hit
	L2Latency  int64 // additional cycles for an L2 hit
	MemLatency int64 // additional cycles for main memory

	TLBEntries   int
	TLBAssoc     int
	TLBPageBytes uint64
	TLBPenalty   int64
	DisableTLB   bool // sensitivity experiments
}

// DefaultConfig returns the paper's base memory system (Table 1).
func DefaultConfig() Config {
	return Config{
		L1I:          CacheConfig{Name: "L1I", SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64},
		L1D:          CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64},
		L2:           CacheConfig{Name: "L2", SizeBytes: 256 << 10, Assoc: 4, LineBytes: 64},
		L1Latency:    2,
		L2Latency:    10,
		MemLatency:   250,
		TLBEntries:   128,
		TLBAssoc:     4,
		TLBPageBytes: 4096,
		TLBPenalty:   30,
	}
}

// AccessResult describes the timing and classification of one access.
type AccessResult struct {
	Ready  int64 // cycle at which the data is available
	L1Miss bool
	L2Miss bool
	Merged bool // L1 miss merged into an in-flight fill of the same line
}

// Hierarchy is the full simulated memory system. It is not safe for
// concurrent use; the cycle-level core drives it single-threaded.
type Hierarchy struct {
	cfg Config
	l1i *Cache
	l1d *Cache
	l2  *Cache
	tlb *TLB

	// In-flight fills by line address, per level that sourced them. Used
	// for MSHR-style merging of secondary misses.
	inflightL1D *inflightTable
	inflightL1I *inflightTable

	LoadCount  uint64
	StoreCount uint64
	MemFills   uint64 // L2 misses serviced by main memory
}

// Validate checks the geometry NewHierarchy would otherwise panic on (or,
// for a page size that is not a power of two, never return from).
func (c Config) Validate() error {
	for _, cc := range [3]CacheConfig{c.L1I, c.L1D, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if c.DisableTLB {
		return nil
	}
	if sets := c.TLBEntries / max(c.TLBAssoc, 1); c.TLBAssoc <= 0 || sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("mem: TLB set count (%d entries / %d ways) is not a positive power of two", c.TLBEntries, c.TLBAssoc)
	}
	if c.TLBPageBytes == 0 || c.TLBPageBytes&(c.TLBPageBytes-1) != 0 {
		return fmt.Errorf("mem: TLB page size %d is not a power of two", c.TLBPageBytes)
	}
	return nil
}

// NewHierarchy builds the memory system; cfg must pass Validate.
func NewHierarchy(cfg Config) *Hierarchy {
	h := &Hierarchy{
		cfg:         cfg,
		l1i:         NewCache(cfg.L1I),
		l1d:         NewCache(cfg.L1D),
		l2:          NewCache(cfg.L2),
		inflightL1D: newInflightTable(),
		inflightL1I: newInflightTable(),
	}
	if !cfg.DisableTLB {
		h.tlb = NewTLB(cfg.TLBEntries, cfg.TLBAssoc, cfg.TLBPageBytes, cfg.TLBPenalty)
	}
	return h
}

// ResetTiming discards transient, cycle-stamped state — the outstanding
// line fills — while keeping every cache, TLB, and LRU content intact.
// Sampled simulation calls it between measured intervals: each interval's
// processor restarts its clock at zero, so fills stamped with the previous
// interval's cycles would otherwise read as permanently in flight.
func (h *Hierarchy) ResetTiming() {
	h.inflightL1D = newInflightTable()
	h.inflightL1I = newInflightTable()
}

// lineFill is one outstanding fill: the line address and the cycle at
// which its data arrives.
type lineFill struct {
	ready int64
	line  uint64
}

func fillBefore(a, b lineFill) bool { return a.ready < b.ready }

// inflightTable tracks outstanding fills for one L1. Lookups go through
// the by-line map; expiry pops a completion-ordered min-heap, so dropping
// finished fills costs O(completed · log n) instead of a full map sweep
// on every access. A line evicted and re-missed leaves a stale heap entry
// behind; expire detects it (the map holds a different ready cycle) and
// skips the map deletion — lazy deletion, never a linear scan.
type inflightTable struct {
	byLine map[uint64]int64
	order  heap.Heap[lineFill]
}

func newInflightTable() *inflightTable {
	return &inflightTable{
		byLine: make(map[uint64]int64),
		order:  heap.NewWithCapacity(fillBefore, 16),
	}
}

func (t *inflightTable) add(line uint64, ready int64) {
	t.byLine[line] = ready
	t.order.Push(lineFill{ready: ready, line: line})
}

func (t *inflightTable) lookup(line uint64) (int64, bool) {
	r, ok := t.byLine[line]
	return r, ok
}

// expire drops every fill completed by cycle now.
func (t *inflightTable) expire(now int64) {
	for t.order.Len() > 0 && t.order.Peek().ready <= now {
		f := t.order.Pop()
		if r, ok := t.byLine[f.line]; ok && r == f.ready {
			delete(t.byLine, f.line)
		}
	}
}

// access runs the generic two-level lookup for one L1 cache.
func (h *Hierarchy) access(l1 *Cache, inflight *inflightTable, addr uint64, now int64, store bool) AccessResult {
	res := AccessResult{}
	line := l1.LineAddr(addr)
	inflight.expire(now)
	start := now
	if l1.Access(addr, store) {
		// Tag hit — but the fill may still be in flight (secondary miss).
		if ready, ok := inflight.lookup(line); ok && ready > now {
			res.L1Miss = true
			res.Merged = true
			res.Ready = ready
			return res
		}
		res.Ready = start + h.cfg.L1Latency
		return res
	}
	res.L1Miss = true
	// Primary miss: go to L2 (and possibly memory), then fill L1.
	ready := start + h.cfg.L1Latency
	if h.l2.Access(addr, false) {
		ready += h.cfg.L2Latency
	} else {
		res.L2Miss = true
		h.MemFills++
		ready += h.cfg.L2Latency + h.cfg.MemLatency
	}
	inflight.add(line, ready)
	res.Ready = ready
	return res
}

// Load performs a data load issued at cycle `now` and returns its timing.
func (h *Hierarchy) Load(addr uint64, now int64) AccessResult {
	h.LoadCount++
	var tlbDelay int64
	if h.tlb != nil {
		tlbDelay = h.tlb.Translate(addr)
	}
	return h.access(h.l1d, h.inflightL1D, addr, now+tlbDelay, false)
}

// ProbeLoad reports whether a load to addr would hit in the L1D right now
// (including lines whose fill already completed), without touching any
// state. The core uses it to decide whether a load needs an outstanding-
// miss slot (bit-vector) before really issuing it.
func (h *Hierarchy) ProbeLoad(addr uint64, now int64) (hit bool, merged bool) {
	if !h.l1d.Probe(addr) {
		return false, false
	}
	if ready, ok := h.inflightL1D.lookup(h.l1d.LineAddr(addr)); ok && ready > now {
		return false, true
	}
	return true, false
}

// Store performs a data store at commit time. Commit does not stall on
// store misses (the line fill completes in the background); the returned
// Ready is when the line is fully owned.
func (h *Hierarchy) Store(addr uint64, now int64) AccessResult {
	h.StoreCount++
	var tlbDelay int64
	if h.tlb != nil {
		tlbDelay = h.tlb.Translate(addr)
	}
	return h.access(h.l1d, h.inflightL1D, addr, now+tlbDelay, true)
}

// Fetch performs an instruction fetch of the line containing byte address
// addr.
func (h *Hierarchy) Fetch(addr uint64, now int64) AccessResult {
	return h.access(h.l1i, h.inflightL1I, addr, now, false)
}

// L1DStats, L1IStats, L2Stats, and TLBMissRatio expose the counters the
// evaluation reports (paper Table 2 columns).
func (h *Hierarchy) L1DStats() CacheStats { return h.l1d.Stats() }

// L1IStats returns instruction-cache counters.
func (h *Hierarchy) L1IStats() CacheStats { return h.l1i.Stats() }

// L2Stats returns unified-L2 counters; MissRatio() is the local miss ratio.
func (h *Hierarchy) L2Stats() CacheStats { return h.l2.Stats() }

// InflightFills counts line fills still outstanding at cycle now across
// both L1 in-flight tables — the MSHR occupancy analogue of this
// merge-based model.
func (h *Hierarchy) InflightFills(now int64) int {
	n := 0
	for _, ready := range h.inflightL1D.byLine {
		if ready > now {
			n++
		}
	}
	for _, ready := range h.inflightL1I.byLine {
		if ready > now {
			n++
		}
	}
	return n
}

// AttachTelemetry registers the hierarchy's traffic counters and MSHR
// occupancy with a telemetry registry. The counter funcs read the same
// fields the end-of-run report uses, so the sampled series and the final
// table always agree.
func (h *Hierarchy) AttachTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("mem.l1d.accesses", func() uint64 { return h.l1d.stats.Accesses })
	reg.CounterFunc("mem.l1d.misses", func() uint64 { return h.l1d.stats.Misses })
	reg.CounterFunc("mem.l1i.accesses", func() uint64 { return h.l1i.stats.Accesses })
	reg.CounterFunc("mem.l1i.misses", func() uint64 { return h.l1i.stats.Misses })
	reg.CounterFunc("mem.l2.accesses", func() uint64 { return h.l2.stats.Accesses })
	reg.CounterFunc("mem.l2.misses", func() uint64 { return h.l2.stats.Misses })
	reg.CounterFunc("mem.fills", func() uint64 { return h.MemFills })
	reg.CounterFunc("mem.loads", func() uint64 { return h.LoadCount })
	reg.CounterFunc("mem.stores", func() uint64 { return h.StoreCount })
	reg.Gauge("mem.mshr.inflight", func(cycle int64) float64 {
		return float64(h.InflightFills(cycle))
	})
}

// TLBMissRatio returns the D-TLB miss ratio (0 if the TLB is disabled).
func (h *Hierarchy) TLBMissRatio() float64 {
	if h.tlb == nil {
		return 0
	}
	return h.tlb.MissRatio()
}

// TLBStats returns the D-TLB's raw access/miss counters (zeros if the TLB
// is disabled). Sampled runs snapshot them around each measured window to
// aggregate interval-only ratios.
func (h *Hierarchy) TLBStats() (accesses, misses uint64) {
	if h.tlb == nil {
		return 0, 0
	}
	return h.tlb.Accesses, h.tlb.Misses
}

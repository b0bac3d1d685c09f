// Package regfile models the timing of the physical register file read
// path. The paper (§3.4) pairs the WIB with a two-level register file
// [13, 34]: a small first level with single-cycle access backed by a large
// pipelined second level (4 read + 4 write ports, 4-cycle latency). The
// conventional configurations use a single-level file with uniform
// single-cycle access.
//
// The model is deliberately abstract (the companion TR [20] explores the
// detailed designs): it answers one question — how many extra cycles does
// reading a given physical register cost right now?
package regfile

import "largewindow/internal/telemetry"

// Model is the read-path timing model consulted by the register-read
// pipeline stage.
type Model interface {
	// Wrote notes that physical register r was produced at cycle now.
	Wrote(r int, now int64)
	// ReadDelay returns extra cycles needed to read r at cycle now, beyond
	// the pipeline's normal register-read stage.
	ReadDelay(r int, now int64) int64
}

// SingleLevel reads every register in the normal pipeline stage: no extra
// delay, regardless of file size. The 2K-register comparison configs in
// the paper idealize the file this way.
type SingleLevel struct{}

// Wrote implements Model.
func (SingleLevel) Wrote(int, int64) {}

// ReadDelay implements Model.
func (SingleLevel) ReadDelay(int, int64) int64 { return 0 }

// TwoLevel keeps the most recently written registers in a small L1 file;
// reads that miss go to the pipelined L2 through a limited number of read
// ports with a fixed latency.
type TwoLevel struct {
	L1Capacity int
	ReadPorts  int
	L2Latency  int64

	// LRU bookkeeping: an intrusive list through links, indexed by
	// physical register, of the registers inL1 marks resident.
	links      []lruLink
	inL1       []bool
	head, tail int32 // head = MRU, tail = LRU
	count      int

	ports portBook // the L2 read ports

	Hits   uint64
	Misses uint64
}

// lruLink is one register's place on the first level's LRU list: both
// neighbours in one record, so moving a register reads one cache line.
type lruLink struct{ next, prev int32 }

// portBook books a set of read ports cycle by cycle. It counts the reads
// booked on each cycle of a window that starts at base, the clock of the
// last read: cycle c's count is counts[c&(len(counts)-1)] for base <= c <
// base+len(counts). The clock only moves forward and a read books a port
// at or after it, so the cycles behind base are never asked about again.
type portBook struct {
	counts []int
	base   int64
}

// portWindow is how many cycles of bookings a portBook starts with (a
// power of two). Reads queue further ahead only when they outrun the
// ports for that long; the window then doubles.
const portWindow = 16

func newPortBook() portBook { return portBook{counts: make([]int, portWindow)} }

// book books one of ports read ports on the first cycle from now on that
// has one free, and returns that cycle. The window first moves up to now:
// the slots of the cycles it leaves behind are emptied for the cycles it
// takes on.
func (b *portBook) book(now int64, ports int) int64 {
	mask := int64(len(b.counts) - 1)
	for c, end := b.base, min(now, b.base+mask+1); c < end; c++ {
		b.counts[c&mask] = 0
	}
	b.base = max(b.base, now)
	start := now
	for b.counts[start&mask] >= ports {
		start++
		if start-b.base > mask {
			b.grow()
			mask = int64(len(b.counts) - 1)
		}
	}
	b.counts[start&mask]++
	return start
}

// grow doubles the window, keeping every cycle's count.
func (b *portBook) grow() {
	old, mask := b.counts, int64(len(b.counts)-1)
	b.counts = make([]int, 2*len(old))
	for c := b.base; c <= b.base+mask; c++ {
		b.counts[c&(2*mask+1)] = old[c&mask]
	}
}

// NewTwoLevel builds a two-level model for a file of totalRegs physical
// registers with the paper's parameters: l1 capacity 128, 4 read ports,
// 4-cycle L2.
func NewTwoLevel(totalRegs, l1Capacity, readPorts int, l2Latency int64) *TwoLevel {
	t := &TwoLevel{
		L1Capacity: l1Capacity,
		ReadPorts:  readPorts,
		L2Latency:  l2Latency,
		links:      make([]lruLink, totalRegs),
		inL1:       make([]bool, totalRegs),
		ports:      newPortBook(),
		head:       -1,
		tail:       -1,
	}
	return t
}

func (t *TwoLevel) unlink(r int32) {
	p, n := t.links[r].prev, t.links[r].next
	if p >= 0 {
		t.links[p].next = n
	} else {
		t.head = n
	}
	if n >= 0 {
		t.links[n].prev = p
	} else {
		t.tail = p
	}
}

func (t *TwoLevel) pushFront(r int32) {
	t.links[r] = lruLink{next: t.head, prev: -1}
	if t.head >= 0 {
		t.links[t.head].prev = r
	}
	t.head = r
	if t.tail < 0 {
		t.tail = r
	}
}

// touch installs or promotes r to MRU, evicting the LRU register if the
// L1 is full.
func (t *TwoLevel) touch(r int) {
	r32 := int32(r)
	if t.inL1[r] {
		if t.head == r32 {
			return
		}
		t.unlink(r32)
		t.pushFront(r32)
		return
	}
	if t.count == t.L1Capacity {
		lru := t.tail
		t.unlink(lru)
		t.inL1[lru] = false
		t.count--
	}
	t.inL1[r] = true
	t.pushFront(r32)
	t.count++
}

// Wrote implements Model: results are written into the L1 file.
func (t *TwoLevel) Wrote(r int, _ int64) { t.touch(r) }

// ReadDelay implements Model. L1 hits are free; misses contend for the L2
// read ports (ReadPorts per cycle) and pay the L2 latency, after which the
// value is installed in the L1. now must not go backwards from one call
// to the next, as a processor's clock does not.
func (t *TwoLevel) ReadDelay(r int, now int64) int64 {
	if t.inL1[r] {
		t.Hits++
		t.touch(r)
		return 0
	}
	t.Misses++
	start := t.ports.book(now, t.ReadPorts)
	t.touch(r)
	return (start - now) + t.L2Latency
}

// L1Count reports the current number of registers resident in the L1 file
// (for tests).
func (t *TwoLevel) L1Count() int { return t.count }

// AttachTelemetry registers the two-level file's hit/miss counters under
// the given prefix (e.g. "regfile.int").
func (t *TwoLevel) AttachTelemetry(reg *telemetry.Registry, prefix string) {
	reg.CounterFunc(prefix+".l1.hits", func() uint64 { return t.Hits })
	reg.CounterFunc(prefix+".l1.misses", func() uint64 { return t.Misses })
}

// Prefetch pulls a register into the L1 file without charging read
// latency — the paper's §6 "prefetching in a two-level organization"
// future-work idea, applied by the WIB at reinsertion time so operands
// are resident before the register-read stage needs them.
func (t *TwoLevel) Prefetch(r int) { t.touch(r) }

// MultiBanked models the other large-register-file alternative the paper
// cites (§3.4, [5][13]): the file is split into banks with a limited
// number of read ports per bank per cycle; conflicting reads in the same
// cycle serialize. All registers are single-level (no L2), so only
// bank-port conflicts add delay.
type MultiBanked struct {
	Banks        int
	PortsPerBank int

	banks     []portBook // each bank's read ports
	conflicts uint64
	reads     uint64
}

// NewMultiBanked builds a multi-banked register file model.
func NewMultiBanked(banks, portsPerBank int) *MultiBanked {
	if banks <= 0 || portsPerBank <= 0 {
		panic("regfile: banks and ports must be positive")
	}
	m := &MultiBanked{Banks: banks, PortsPerBank: portsPerBank, banks: make([]portBook, banks)}
	for i := range m.banks {
		m.banks[i] = newPortBook()
	}
	return m
}

// Wrote implements Model. Writes are not port-limited in this model (the
// cited designs provision dedicated write ports).
func (m *MultiBanked) Wrote(int, int64) {}

// ReadDelay implements Model: a read waits for the first cycle with a
// free port on its register's bank. now must not go backwards from one
// call to the next, as a processor's clock does not.
func (m *MultiBanked) ReadDelay(r int, now int64) int64 {
	m.reads++
	start := m.banks[r%m.Banks].book(now, m.PortsPerBank)
	if start > now {
		m.conflicts++
	}
	return start - now
}

// AttachTelemetry registers the banked file's read/conflict counters
// under the given prefix.
func (m *MultiBanked) AttachTelemetry(reg *telemetry.Registry, prefix string) {
	reg.CounterFunc(prefix+".reads", func() uint64 { return m.reads })
	reg.CounterFunc(prefix+".conflicts", func() uint64 { return m.conflicts })
}

// ConflictRate reports the fraction of reads delayed by bank conflicts.
func (m *MultiBanked) ConflictRate() float64 {
	if m.reads == 0 {
		return 0
	}
	return float64(m.conflicts) / float64(m.reads)
}

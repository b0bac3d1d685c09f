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

	// LRU bookkeeping, intrusive lists indexed by physical register.
	next, prev []int32
	inL1       []bool
	head, tail int32 // head = MRU, tail = LRU
	count      int

	// ports counts the L2 reads booked on each cycle of a window that
	// starts at base, the clock of the last miss: cycle c's count is
	// ports[c&(len(ports)-1)] for base <= c < base+len(ports). The clock
	// only moves forward and a read books a port at or after it, so the
	// cycles behind base are never asked about again.
	ports []int
	base  int64

	Hits   uint64
	Misses uint64
}

// portWindow is how many cycles of port bookings TwoLevel starts with
// (a power of two). Reads queue further ahead only when misses outrun
// the ports for that long; the window then doubles.
const portWindow = 16

// NewTwoLevel builds a two-level model for a file of totalRegs physical
// registers with the paper's parameters: l1 capacity 128, 4 read ports,
// 4-cycle L2.
func NewTwoLevel(totalRegs, l1Capacity, readPorts int, l2Latency int64) *TwoLevel {
	t := &TwoLevel{
		L1Capacity: l1Capacity,
		ReadPorts:  readPorts,
		L2Latency:  l2Latency,
		next:       make([]int32, totalRegs),
		prev:       make([]int32, totalRegs),
		inL1:       make([]bool, totalRegs),
		ports:      make([]int, portWindow),
		head:       -1,
		tail:       -1,
	}
	return t
}

func (t *TwoLevel) unlink(r int32) {
	p, n := t.prev[r], t.next[r]
	if p >= 0 {
		t.next[p] = n
	} else {
		t.head = n
	}
	if n >= 0 {
		t.prev[n] = p
	} else {
		t.tail = p
	}
}

func (t *TwoLevel) pushFront(r int32) {
	t.prev[r] = -1
	t.next[r] = t.head
	if t.head >= 0 {
		t.prev[t.head] = int32(r)
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
	start := t.bookPort(now)
	t.touch(r)
	return (start - now) + t.L2Latency
}

// bookPort books an L2 read port on the first cycle from now on that has
// one free, and returns that cycle. The window first moves up to now: the
// slots of the cycles it leaves behind are emptied for the cycles it
// takes on.
func (t *TwoLevel) bookPort(now int64) int64 {
	mask := int64(len(t.ports) - 1)
	for c, end := t.base, min(now, t.base+mask+1); c < end; c++ {
		t.ports[c&mask] = 0
	}
	t.base = max(t.base, now)
	start := now
	for t.ports[start&mask] >= t.ReadPorts {
		start++
		if start-t.base > mask {
			t.growPorts()
			mask = int64(len(t.ports) - 1)
		}
	}
	t.ports[start&mask]++
	return start
}

// growPorts doubles the booking window, keeping every cycle's count.
func (t *TwoLevel) growPorts() {
	old, mask := t.ports, int64(len(t.ports)-1)
	t.ports = make([]int, 2*len(old))
	for c := t.base; c <= t.base+mask; c++ {
		t.ports[c&(2*mask+1)] = old[c&mask]
	}
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

	use       map[int64][]uint8 // cycle -> per-bank reads issued
	conflicts uint64
	reads     uint64
}

// NewMultiBanked builds a multi-banked register file model.
func NewMultiBanked(banks, portsPerBank int) *MultiBanked {
	if banks <= 0 || portsPerBank <= 0 {
		panic("regfile: banks and ports must be positive")
	}
	return &MultiBanked{
		Banks:        banks,
		PortsPerBank: portsPerBank,
		use:          make(map[int64][]uint8),
	}
}

// Wrote implements Model. Writes are not port-limited in this model (the
// cited designs provision dedicated write ports).
func (m *MultiBanked) Wrote(int, int64) {}

// ReadDelay implements Model: a read waits for the first cycle with a
// free port on its register's bank.
func (m *MultiBanked) ReadDelay(r int, now int64) int64 {
	m.reads++
	bank := r % m.Banks
	start := now
	for {
		u := m.use[start]
		if u == nil {
			u = make([]uint8, m.Banks)
			m.use[start] = u
		}
		if int(u[bank]) < m.PortsPerBank {
			u[bank]++
			break
		}
		start++
	}
	if len(m.use) > 4096 {
		for c := range m.use {
			if c < now {
				delete(m.use, c)
			}
		}
	}
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

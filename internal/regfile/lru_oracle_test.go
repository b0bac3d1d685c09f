package regfile

import (
	"math/rand"
	"testing"
)

// arraysTwoLevel is the two-level file's first level with its LRU list as
// three parallel arrays, the layout it had before a register's links
// became one record: the reference TestTwoLevelMatchesArraysOracle holds
// TwoLevel to. Its L2 ports are a portBook like TwoLevel's.
type arraysTwoLevel struct {
	L1Capacity int
	ReadPorts  int
	L2Latency  int64

	next, prev []int32
	inL1       []bool
	head, tail int32
	count      int

	ports portBook

	Hits   uint64
	Misses uint64
}

func newArraysTwoLevel(totalRegs, l1Capacity, readPorts int, l2Latency int64) *arraysTwoLevel {
	return &arraysTwoLevel{
		L1Capacity: l1Capacity,
		ReadPorts:  readPorts,
		L2Latency:  l2Latency,
		next:       make([]int32, totalRegs),
		prev:       make([]int32, totalRegs),
		inL1:       make([]bool, totalRegs),
		ports:      newPortBook(),
		head:       -1,
		tail:       -1,
	}
}

func (t *arraysTwoLevel) unlink(r int32) {
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

func (t *arraysTwoLevel) pushFront(r int32) {
	t.prev[r] = -1
	t.next[r] = t.head
	if t.head >= 0 {
		t.prev[t.head] = r
	}
	t.head = r
	if t.tail < 0 {
		t.tail = r
	}
}

func (t *arraysTwoLevel) touch(r int) {
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

func (t *arraysTwoLevel) ReadDelay(r int, now int64) int64 {
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

// TestTwoLevelMatchesArraysOracle drives TwoLevel and the three-array
// oracle through the same seeded writes, prefetches and reads, several a
// cycle, over a file a few times the first level: every read must cost
// the same, which shows the same residents and the same LRU order, and
// the counters must agree. A last read of every register compares the
// final contents.
func TestTwoLevelMatchesArraysOracle(t *testing.T) {
	for _, l1 := range []int{1, 2, 16, 128} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(l1)))
			regs := 4 * l1
			got, want := NewTwoLevel(regs, l1, 2, 4), newArraysTwoLevel(regs, l1, 2, 4)
			now := int64(0)
			read := func(step, r int) {
				if g, w := got.ReadDelay(r, now), want.ReadDelay(r, now); g != w {
					t.Fatalf("l1 %d seed %d step %d: ReadDelay(%d, %d) = %d, oracle %d", l1, seed, step, r, now, g, w)
				}
			}
			for step := 0; step < 20_000; step++ {
				if rng.Intn(3) == 0 {
					now++
				}
				r := rng.Intn(regs)
				switch x := rng.Intn(10); {
				case x < 3:
					got.Wrote(r, now)
					want.touch(r)
				case x < 4:
					got.Prefetch(r)
					want.touch(r)
				default:
					read(step, r)
				}
			}
			for r := 0; r < regs; r++ {
				now++
				read(-1, r)
			}
			if got.Hits != want.Hits || got.Misses != want.Misses || got.L1Count() != want.count {
				t.Fatalf("l1 %d seed %d: hits/misses/l1 %d/%d/%d, oracle %d/%d/%d", l1, seed,
					got.Hits, got.Misses, got.L1Count(), want.Hits, want.Misses, want.count)
			}
		}
	}
}

package regfile

import (
	"math/rand"
	"testing"
)

// oracleTwoLevel is TwoLevel with the map-based port bookkeeping the
// model had before the cycle window: portUse counts the L2 reads issued
// per cycle, and entries behind now are pruned only when the map passes
// 4096 keys. The L1 (touch, counters) is the embedded TwoLevel's, so the
// two implementations differ only in how a read finds its port.
type oracleTwoLevel struct {
	*TwoLevel
	portUse map[int64]int
}

func newOracleTwoLevel(totalRegs, l1Capacity, readPorts int, l2Latency int64) *oracleTwoLevel {
	return &oracleTwoLevel{
		TwoLevel: NewTwoLevel(totalRegs, l1Capacity, readPorts, l2Latency),
		portUse:  make(map[int64]int),
	}
}

func (t *oracleTwoLevel) ReadDelay(r int, now int64) int64 {
	if t.inL1[r] {
		t.Hits++
		t.touch(r)
		return 0
	}
	t.Misses++
	start := now
	for t.portUse[start] >= t.ReadPorts {
		start++
	}
	t.portUse[start]++
	if len(t.portUse) > 4096 {
		for c := range t.portUse {
			if c < now {
				delete(t.portUse, c)
			}
		}
	}
	t.touch(r)
	return (start - now) + t.L2Latency
}

// TestTwoLevelMatchesMapOracle drives the model and its map-based oracle
// through the same random traffic — reads, writes and prefetches, several
// reads a cycle (more than the ports, so reads queue cycles ahead), a
// clock that stands, steps and jumps — and requires the same delay for
// every read and the same counters at the end. The clock only moves
// forward, as the core's does.
func TestTwoLevelMatchesMapOracle(t *testing.T) {
	for _, ports := range []int{1, 2, 3, 4, 8} {
		for _, l1 := range []int{1, 4, 16, 128} {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(ports*10+l1)))
				const regs = 256
				got := NewTwoLevel(regs, l1, ports, 4)
				want := newOracleTwoLevel(regs, l1, ports, 4)
				now := int64(rng.Intn(100))
				for step := 0; step < 20000; step++ {
					switch x := rng.Intn(100); {
					case x < 2:
						now += int64(rng.Intn(50_000)) // an idle jump
					case x < 40:
						now++
					}
					r := rng.Intn(regs)
					switch x := rng.Intn(10); {
					case x < 2:
						got.Wrote(r, now)
						want.Wrote(r, now)
					case x < 3:
						got.Prefetch(r)
						want.Prefetch(r)
					default:
						if g, w := got.ReadDelay(r, now), want.ReadDelay(r, now); g != w {
							t.Fatalf("ports %d l1 %d seed %d step %d: ReadDelay(%d, %d) = %d, oracle %d",
								ports, l1, seed, step, r, now, g, w)
						}
					}
				}
				if got.Hits != want.Hits || got.Misses != want.Misses || got.L1Count() != want.L1Count() {
					t.Fatalf("ports %d l1 %d seed %d: hits/misses/l1 = %d/%d/%d, oracle %d/%d/%d", ports, l1, seed,
						got.Hits, got.Misses, got.L1Count(), want.Hits, want.Misses, want.L1Count())
				}
			}
		}
	}
}

// oracleMultiBanked is MultiBanked with the map-based port bookkeeping
// the model had before the per-bank cycle windows: use counts each bank's
// reads per cycle, a new cycle makes its row, and entries behind now are
// pruned only when the map passes 4096 keys.
type oracleMultiBanked struct {
	Banks, PortsPerBank int

	use              map[int64][]uint8 // cycle -> per-bank reads issued
	conflicts, reads uint64
}

func newOracleMultiBanked(banks, portsPerBank int) *oracleMultiBanked {
	return &oracleMultiBanked{Banks: banks, PortsPerBank: portsPerBank, use: make(map[int64][]uint8)}
}

func (m *oracleMultiBanked) ReadDelay(r int, now int64) int64 {
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

func (m *oracleMultiBanked) ConflictRate() float64 {
	if m.reads == 0 {
		return 0
	}
	return float64(m.conflicts) / float64(m.reads)
}

// TestMultiBankedMatchesMapOracle drives the banked file and its
// map-based oracle through the same random reads — several a cycle, and
// storms of up to 100 onto one bank, so reads queue far more cycles ahead
// than a bank's first window holds; a clock that stands, steps and jumps
// idle stretches — and requires the
// same delay for every read and the same reads, conflicts and conflict
// rate at the end.
func TestMultiBankedMatchesMapOracle(t *testing.T) {
	for _, banks := range []int{1, 2, 4, 8} {
		for _, ports := range []int{1, 2, 3} {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(banks*10+ports)))
				const regs = 256
				got := NewMultiBanked(banks, ports)
				want := newOracleMultiBanked(banks, ports)
				now := int64(rng.Intn(100))
				for step := 0; step < 20000; step++ {
					switch x := rng.Intn(100); {
					case x < 2:
						now += int64(rng.Intn(50_000)) // an idle jump
					case x < 40:
						now++
					}
					reads, bank := 1, -1
					if rng.Intn(200) == 0 {
						reads, bank = 1+rng.Intn(100), rng.Intn(banks) // a storm on one bank
					}
					for ; reads > 0; reads-- {
						r := rng.Intn(regs)
						if bank >= 0 {
							r = bank + banks*rng.Intn(regs/banks)
						}
						if g, w := got.ReadDelay(r, now), want.ReadDelay(r, now); g != w {
							t.Fatalf("banks %d ports %d seed %d step %d: ReadDelay(%d, %d) = %d, oracle %d",
								banks, ports, seed, step, r, now, g, w)
						}
					}
				}
				if got.reads != want.reads || got.conflicts != want.conflicts || got.ConflictRate() != want.ConflictRate() {
					t.Fatalf("banks %d ports %d seed %d: reads/conflicts/rate = %d/%d/%g, oracle %d/%d/%g", banks, ports, seed,
						got.reads, got.conflicts, got.ConflictRate(), want.reads, want.conflicts, want.ConflictRate())
				}
			}
		}
	}
}

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

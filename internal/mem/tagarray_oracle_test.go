package mem

import (
	"math/rand"
	"testing"
)

// oracleTagArray is the tag array as a slice of sets over one backing
// array, the layout it had before the sets became one flat slice: the
// reference TestTagArrayMatchesNestedOracle holds the tag array to.
type oracleTagArray struct {
	sets    [][]line
	setMask uint64
	shift   uint
	tick    uint64
}

func newOracleTagArray(nsets, assoc int, unitBytes uint64) *oracleTagArray {
	sets := make([][]line, nsets)
	backing := make([]line, nsets*assoc)
	for i := range sets {
		sets[i] = backing[i*assoc : (i+1)*assoc]
	}
	shift := uint(0)
	for uint64(1)<<shift != unitBytes {
		shift++
	}
	return &oracleTagArray{sets: sets, setMask: uint64(nsets - 1), shift: shift}
}

func (a *oracleTagArray) touch(addr uint64, store bool) (hit, evictedDirty bool) {
	a.tick++
	unit := addr >> a.shift
	ways := a.sets[unit&a.setMask]
	for i := range ways {
		if ways[i].valid && ways[i].tag == unit {
			ways[i].lru = a.tick
			if store {
				ways[i].dirty = true
			}
			return true, false
		}
	}
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	evictedDirty = ways[victim].valid && ways[victim].dirty
	ways[victim] = line{tag: unit, valid: true, dirty: store, lru: a.tick}
	return false, evictedDirty
}

func (a *oracleTagArray) probe(addr uint64) bool {
	unit := addr >> a.shift
	for _, w := range a.sets[unit&a.setMask] {
		if w.valid && w.tag == unit {
			return true
		}
	}
	return false
}

func (a *oracleTagArray) clone() *oracleTagArray {
	c := newOracleTagArray(len(a.sets), len(a.sets[0]), 1<<a.shift)
	for i := range a.sets {
		copy(c.sets[i], a.sets[i])
	}
	c.tick = a.tick
	return c
}

// TestTagArrayMatchesNestedOracle drives a cache's tag array and the
// nested oracle through the same seeded stream of loads, stores and
// probes over a few times the array's reach, for the caches' and the
// TLB's geometries and odd ones: every touch must report the same hit
// and dirty victim (so the same victims and the same LRU order), every
// probe the same answer. At random points both sides move onto a copy —
// copyFrom into an array another stream dirtied, and the oracle's deep
// copy — and carry on there. A drain of every set compares the final
// contents, dirty bits and LRU order.
func TestTagArrayMatchesNestedOracle(t *testing.T) {
	for _, geo := range []struct {
		nsets, assoc int
		unit         uint64
	}{{1, 1, 64}, {1, 8, 64}, {4, 1, 64}, {4, 2, 64}, {16, 4, 64}, {128, 4, 64}, {32, 4, 4096}, {8, 8, 8}} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(geo.nsets*10+geo.assoc)))
			got := &Cache{tagArray: newTagArray(geo.nsets, geo.assoc, geo.unit)}
			want := newOracleTagArray(geo.nsets, geo.assoc, geo.unit)
			units := 3 * geo.nsets * geo.assoc
			addrOf := func() uint64 { return uint64(rng.Intn(units))*geo.unit + uint64(rng.Intn(int(geo.unit))) }
			for step := 0; step < 20_000; step++ {
				switch x := rng.Intn(100); {
				case x < 3:
					dst := &Cache{tagArray: newTagArray(geo.nsets, geo.assoc, geo.unit)}
					for i := 0; i < units; i++ {
						dst.touch(addrOf(), rng.Intn(2) == 0)
					}
					dst.copyFrom(&got.tagArray)
					got, want = dst, want.clone()
				case x < 20:
					addr := addrOf()
					if g, w := got.Probe(addr), want.probe(addr); g != w {
						t.Fatalf("%+v seed %d step %d: Probe(%#x) = %v, oracle %v", geo, seed, step, addr, g, w)
					}
				default:
					addr, store := addrOf(), rng.Intn(3) == 0
					gh, gd := got.touch(addr, store)
					wh, wd := want.touch(addr, store)
					if gh != wh || gd != wd {
						t.Fatalf("%+v seed %d step %d: touch(%#x, %v) = (hit %v, dirty victim %v), oracle (%v, %v)",
							geo, seed, step, addr, store, gh, gd, wh, wd)
					}
				}
			}
			// Drain: fill each set with units the stream never used, one way
			// at a time. Each fill evicts the set's least recently used
			// line, so the dirty victims and the lines still present after
			// each fill read out the LRU order and the dirty bits.
			for s := 0; s < geo.nsets; s++ {
				for k := 0; k < geo.assoc; k++ {
					fresh := uint64(units+s+k*geo.nsets) * geo.unit
					gh, gd := got.touch(fresh, false)
					wh, wd := want.touch(fresh, false)
					if gh || wh || gd != wd {
						t.Fatalf("%+v seed %d: drain of set %d way %d: (hit %v, dirty victim %v), oracle (%v, %v)",
							geo, seed, s, k, gh, gd, wh, wd)
					}
					for u := s; u < units; u += geo.nsets {
						addr := uint64(u) * geo.unit
						if g, w := got.Probe(addr), want.probe(addr); g != w {
							t.Fatalf("%+v seed %d: drain of set %d way %d: Probe(%#x) = %v, oracle %v", geo, seed, s, k, addr, g, w)
						}
					}
				}
			}
		}
	}
}

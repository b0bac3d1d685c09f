package bpred

import (
	"math/rand"
	"testing"

	"largewindow/internal/isa"
)

// oracleBTB is the BTB as four parallel arrays, the layout it had before
// its ways became records: the reference the differential tests below
// hold the BTB to.
type oracleBTB struct {
	tags    []uint64
	targets []uint64
	valid   []bool
	lru     []uint64
	assoc   int
	setMask uint64
	tick    uint64

	Lookups uint64
	Hits    uint64
}

func newOracleBTB(entries, assoc int) *oracleBTB {
	return &oracleBTB{
		tags:    make([]uint64, entries),
		targets: make([]uint64, entries),
		valid:   make([]bool, entries),
		lru:     make([]uint64, entries),
		assoc:   assoc,
		setMask: uint64(entries/assoc - 1),
	}
}

func (b *oracleBTB) Lookup(pc uint64) (target uint64, hit bool) {
	b.Lookups++
	b.tick++
	base := int(pc&b.setMask) * b.assoc
	for i := base; i < base+b.assoc; i++ {
		if b.valid[i] && b.tags[i] == pc {
			b.lru[i] = b.tick
			b.Hits++
			return b.targets[i], true
		}
	}
	return 0, false
}

func (b *oracleBTB) Insert(pc, target uint64) {
	b.tick++
	base := int(pc&b.setMask) * b.assoc
	victim := base
	for i := base; i < base+b.assoc; i++ {
		if b.valid[i] && b.tags[i] == pc {
			b.targets[i] = target
			b.lru[i] = b.tick
			return
		}
		if !b.valid[i] {
			victim = i
			break
		}
		if b.lru[i] < b.lru[victim] {
			victim = i
		}
	}
	b.tags[victim] = pc
	b.targets[victim] = target
	b.valid[victim] = true
	b.lru[victim] = b.tick
}

func (b *oracleBTB) clone() *oracleBTB {
	c := *b
	c.tags = append([]uint64(nil), b.tags...)
	c.targets = append([]uint64(nil), b.targets...)
	c.valid = append([]bool(nil), b.valid...)
	c.lru = append([]uint64(nil), b.lru...)
	return &c
}

// TestBTBMatchesParallelArrayOracle drives the BTB and its parallel-array
// oracle through the same seeded stream of lookups and inserts over a
// few times the BTB's reach, so sets overflow and ways are evicted: every
// lookup must return the same target and hit, which shows the same
// victims and the same LRU order, and the counters must agree. A last
// lookup of every PC the stream used compares the final contents.
func TestBTBMatchesParallelArrayOracle(t *testing.T) {
	for _, geo := range [][2]int{{1, 1}, {8, 1}, {8, 2}, {16, 4}, {64, 4}, {32, 8}, {2048, 4}} {
		entries, assoc := geo[0], geo[1]
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(entries+assoc)))
			got, want := newBTB(entries, assoc), newOracleBTB(entries, assoc)
			span := 3 * entries
			lookup := func(step int, pc uint64) {
				gt, gh := got.Lookup(pc)
				wt, wh := want.Lookup(pc)
				if gt != wt || gh != wh {
					t.Fatalf("%d×%d seed %d step %d: Lookup(%d) = (%d,%v), oracle (%d,%v)",
						entries, assoc, seed, step, pc, gt, gh, wt, wh)
				}
			}
			for step := 0; step < 20_000; step++ {
				pc := uint64(rng.Intn(span))
				if rng.Intn(2) == 0 {
					lookup(step, pc)
				} else {
					target := uint64(rng.Intn(1 << 16))
					got.Insert(pc, target)
					want.Insert(pc, target)
				}
			}
			for pc := 0; pc < span; pc++ {
				lookup(-1, uint64(pc))
			}
			if got.Lookups != want.Lookups || got.Hits != want.Hits {
				t.Fatalf("%d×%d seed %d: lookups/hits %d/%d, oracle %d/%d",
					entries, assoc, seed, got.Lookups, got.Hits, want.Lookups, want.Hits)
			}
		}
	}
}

// TestPredictorBTBMatchesOracleAcrossClones follows the predictor's own
// BTB traffic — fetch lookups, commit and warm inserts, profile lookups —
// with the parallel-array oracle beside it, and at random points moves
// the stream onto a CloneInto copy in a predictor another stream dirtied
// (the oracle onto its own deep copy). Every BTB hit the predictor
// reports, and its lookup counters, must be the oracle's.
func TestPredictorBTBMatchesOracleAcrossClones(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BTBEntries, cfg.BTBAssoc = 64, 4
	ops := [...]isa.Instr{condBr(3), condBr(-7), {Op: isa.OpJal, Imm: 5}, {Op: isa.OpJr}, {Op: isa.OpJ, Imm: 9}}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, o := New(cfg), newOracleBTB(cfg.BTBEntries, cfg.BTBAssoc)
		for step := 0; step < 30_000; step++ {
			pc := uint64(rng.Intn(4 * cfg.BTBEntries))
			in := ops[rng.Intn(len(ops))]
			taken := rng.Intn(3) != 0 || !in.Op.IsCondBranch()
			target := uint64(rng.Intn(1 << 14))
			switch rng.Intn(10) {
			case 0:
				p.WarmBranch(pc, target, taken, in.Op.IsCondBranch(), true)
				if taken {
					o.Insert(pc, target)
				}
			case 1:
				_, btbMiss := p.ProfileBranch(pc, target, taken, in.Op.IsCondBranch(), true)
				if taken {
					_, hit := o.Lookup(pc)
					o.Insert(pc, target)
					if btbMiss == hit {
						t.Fatalf("seed %d step %d: profile BTB miss %v at pc %d, oracle hit %v", seed, step, btbMiss, pc, hit)
					}
				}
			case 2:
				dst := New(cfg)
				train(dst, rng, 200)
				p, o = p.CloneInto(dst), o.clone()
			default:
				pr, cp := p.Predict(pc, in)
				if in.Op == isa.OpJ || in.Op == isa.OpJal || in.Op.IsCondBranch() && pr.Taken {
					if _, hit := o.Lookup(pc); hit != pr.BTBHit {
						t.Fatalf("seed %d step %d: %v at pc %d: BTB hit %v, oracle %v", seed, step, in.Op, pc, pr.BTBHit, hit)
					}
				}
				p.Commit(pc, in, cp, taken, target)
				if taken && in.Op != isa.OpJr {
					o.Insert(pc, target)
				}
			}
		}
		if l, h := p.BTBStats(); l != o.Lookups || h != o.Hits {
			t.Fatalf("seed %d: BTB lookups/hits %d/%d, oracle %d/%d", seed, l, h, o.Lookups, o.Hits)
		}
	}
}

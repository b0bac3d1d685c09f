package bpred

import (
	"math/rand"
	"reflect"
	"testing"

	"largewindow/internal/isa"
)

// oracleClone is the allocate-everything deep copy Clone was before it
// copied into a recycled predictor: every table, the BTB and the RAS
// freshly appended, everything else copied by value.
func oracleClone(p *Predictor) *Predictor {
	q := *p
	q.comb = &Combined{
		Bim: &Bimodal{
			table: append([]uint8(nil), p.comb.Bim.table...),
			mask:  p.comb.Bim.mask,
		},
		Glob: &TwoLevel{
			pht:      append([]uint8(nil), p.comb.Glob.pht...),
			mask:     p.comb.Glob.mask,
			HistBits: p.comb.Glob.HistBits,
		},
		choice: append([]uint8(nil), p.comb.choice...),
		mask:   p.comb.mask,
	}
	btb := *p.btb
	btb.tags = append([]uint64(nil), p.btb.tags...)
	btb.targets = append([]uint64(nil), p.btb.targets...)
	btb.valid = append([]bool(nil), p.btb.valid...)
	btb.lru = append([]uint64(nil), p.btb.lru...)
	q.btb = &btb
	ras := *p.ras
	ras.stack = append([]uint64(nil), p.ras.stack...)
	q.ras = &ras
	return &q
}

// train drives p through n random control transfers the way the core
// does — predict, sometimes squash and redo, commit — plus warm-path
// branches, so the direction tables, chooser, BTB, RAS and history all
// leave their initial state.
func train(p *Predictor, rng *rand.Rand, n int) {
	ops := [...]isa.Instr{condBr(3), condBr(-7), {Op: isa.OpJal, Imm: 5}, {Op: isa.OpJr}, {Op: isa.OpJ, Imm: 9}}
	for i := 0; i < n; i++ {
		pc := uint64(rng.Intn(1 << 14))
		in := ops[rng.Intn(len(ops))]
		taken := rng.Intn(3) != 0
		_, cp := p.Predict(pc, in)
		if rng.Intn(8) == 0 {
			p.Squash(cp)
			p.Redo(pc, in, cp, taken)
		}
		p.Commit(pc, in, cp, taken || !in.Op.IsCondBranch(), uint64(rng.Intn(1<<14)))
		if rng.Intn(4) == 0 {
			p.WarmBranch(uint64(rng.Intn(1<<14)), uint64(rng.Intn(1<<14)), rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0)
		}
	}
}

// TestCloneMatchesOracle: Clone of a trained predictor is field for
// field the oracle's copy, the BTB's and RAS's bookkeeping included.
func TestCloneMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := New(DefaultConfig())
		train(p, rand.New(rand.NewSource(seed)), 5000)
		if got, want := p.Clone(), oracleClone(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Clone differs from the oracle's copy", seed)
		}
	}
}

// TestCloneIntoDirtyPredictor: copying into a predictor that another
// window trained differently — same geometry, or a smaller or larger one
// — gives exactly Clone's copy, BTB and RAS included, in dst itself.
func TestCloneIntoDirtyPredictor(t *testing.T) {
	small := Config{BimodalEntries: 256, TwoLevelEntries: 512, ChooserEntries: 128, BTBEntries: 64, BTBAssoc: 2, RASEntries: 4}
	large := DefaultConfig()
	large.BTBEntries, large.RASEntries = 4096, 64
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := New(DefaultConfig())
		train(p, rng, 5000)
		for _, cfg := range []Config{DefaultConfig(), small, large} {
			dst := New(cfg)
			train(dst, rng, 3000)
			got := p.CloneInto(dst)
			if !reflect.DeepEqual(got, p.Clone()) {
				t.Fatalf("seed %d, dst %+v: CloneInto differs from Clone", seed, cfg)
			}
			if got != dst {
				t.Errorf("seed %d, dst %+v: CloneInto returned a new predictor", seed, cfg)
			}
			// The copy is independent of p: training it leaves p as it was.
			before := p.Clone()
			train(got, rng, 500)
			if !reflect.DeepEqual(p, before) {
				t.Fatalf("seed %d, dst %+v: training the copy moved the original", seed, cfg)
			}
		}
	}
}

// TestCloneIntoSameGeometryAllocatesNothing: recycling a window's
// predictor into the next snapshot is a copy, not a construction.
func TestCloneIntoSameGeometryAllocatesNothing(t *testing.T) {
	p, dst := New(DefaultConfig()), New(DefaultConfig())
	train(p, rand.New(rand.NewSource(1)), 1000)
	if allocs := testing.AllocsPerRun(10, func() { p.CloneInto(dst) }); allocs != 0 {
		t.Errorf("CloneInto a same-geometry predictor: %v allocs, want 0", allocs)
	}
}

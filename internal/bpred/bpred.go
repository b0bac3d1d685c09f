// Package bpred implements the paper's front-end prediction machinery
// (Table 1): a combined bimodal + two-level-adaptive direction predictor
// with speculative history update and history-based fixup, a branch target
// buffer, and a return-address stack with pointer-and-data repair.
//
// The pipeline drives it with three calls per control transfer:
//
//	Predict  — at fetch: produce direction+target, speculatively update
//	           history/RAS, and return a Checkpoint.
//	Squash   — during misprediction recovery, youngest first: undo the
//	           speculative effects of a wrong-path branch.
//	Redo     — after recovery, re-apply the resolving branch's effect with
//	           its actual outcome.
//	Commit   — at retire: train the counters and the BTB.
package bpred

// saturating two-bit counter helpers.
func inc2(c uint8) uint8 {
	if c < 3 {
		return c + 1
	}
	return 3
}

func dec2(c uint8) uint8 {
	if c > 0 {
		return c - 1
	}
	return 0
}

// Bimodal is a PC-indexed table of two-bit saturating counters.
type Bimodal struct {
	table []uint8
	mask  uint64
}

// newBimodal builds a bimodal predictor with `entries` counters
// (power of two), initialized weakly taken.
func newBimodal(entries int) Bimodal {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bpred: bimodal entries must be a positive power of two")
	}
	t := make([]uint8, entries)
	for i := range t {
		t[i] = 2
	}
	return Bimodal{table: t, mask: uint64(entries - 1)}
}

// Lookup predicts the direction of the branch at pc.
func (b *Bimodal) Lookup(pc uint64) bool { return b.table[pc&b.mask] >= 2 }

// Update trains the counter for pc with the actual outcome.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := pc & b.mask
	if taken {
		b.table[i] = inc2(b.table[i])
	} else {
		b.table[i] = dec2(b.table[i])
	}
}

// TwoLevel is a two-level adaptive (gshare-style) predictor: the global
// history register is XORed with the PC to index a pattern history table
// of two-bit counters. The history register itself is owned by the
// enclosing Predictor so it can be updated speculatively and repaired.
type TwoLevel struct {
	pht      []uint8
	mask     uint64
	HistBits uint
}

// newTwoLevel builds a two-level predictor with `entries` PHT counters and
// log2(entries) history bits.
func newTwoLevel(entries int) TwoLevel {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bpred: two-level entries must be a positive power of two")
	}
	t := make([]uint8, entries)
	for i := range t {
		t[i] = 2
	}
	bits := uint(0)
	for 1<<bits != entries {
		bits++
	}
	return TwoLevel{pht: t, mask: uint64(entries - 1), HistBits: bits}
}

func (g *TwoLevel) index(pc uint64, ghr uint32) uint64 {
	return (pc ^ uint64(ghr)) & g.mask
}

// Lookup predicts using the given global history value.
func (g *TwoLevel) Lookup(pc uint64, ghr uint32) bool { return g.pht[g.index(pc, ghr)] >= 2 }

// Update trains the counter addressed by (pc, ghr) — callers pass the
// history value that was live at prediction time.
func (g *TwoLevel) Update(pc uint64, ghr uint32, taken bool) {
	i := g.index(pc, ghr)
	if taken {
		g.pht[i] = inc2(g.pht[i])
	} else {
		g.pht[i] = dec2(g.pht[i])
	}
}

// Combined arbitrates between the bimodal and two-level components with a
// PC-indexed chooser, as in SimpleScalar's "comb" predictor that the paper
// uses.
type Combined struct {
	Bim    Bimodal
	Glob   TwoLevel
	choice []uint8
	mask   uint64
}

// newCombined builds the combined predictor; chooserEntries must be a
// power of two.
func newCombined(bimodalEntries, twoLevelEntries, chooserEntries int) Combined {
	if chooserEntries <= 0 || chooserEntries&(chooserEntries-1) != 0 {
		panic("bpred: chooser entries must be a positive power of two")
	}
	c := make([]uint8, chooserEntries)
	for i := range c {
		c[i] = 2 // weakly prefer the two-level component
	}
	return Combined{
		Bim:    newBimodal(bimodalEntries),
		Glob:   newTwoLevel(twoLevelEntries),
		choice: c,
		mask:   uint64(chooserEntries - 1),
	}
}

// Lookup returns the combined prediction and each component's vote.
func (c *Combined) Lookup(pc uint64, ghr uint32) (pred, bim, glob bool) {
	bim = c.Bim.Lookup(pc)
	glob = c.Glob.Lookup(pc, ghr)
	if c.choice[pc&c.mask] >= 2 {
		return glob, bim, glob
	}
	return bim, bim, glob
}

// Update trains both components and, when they disagreed, moves the
// chooser toward whichever was right.
func (c *Combined) Update(pc uint64, ghr uint32, taken, bimPred, globPred bool) {
	c.Bim.Update(pc, taken)
	c.Glob.Update(pc, ghr, taken)
	if bimPred != globPred {
		i := pc & c.mask
		if globPred == taken {
			c.choice[i] = inc2(c.choice[i])
		} else {
			c.choice[i] = dec2(c.choice[i])
		}
	}
}

package bpred

import "testing"

func TestBimodalSaturation(t *testing.T) {
	b := newBimodal(16)
	pc := uint64(5)
	// Initialized weakly taken.
	if !b.Lookup(pc) {
		t.Error("initial prediction not taken")
	}
	b.Update(pc, false)
	if b.Lookup(pc) {
		t.Error("one not-taken should flip weakly-taken to not-taken")
	}
	for i := 0; i < 10; i++ {
		b.Update(pc, false)
	}
	// Saturated: two takens needed to flip back.
	b.Update(pc, true)
	if b.Lookup(pc) {
		t.Error("single taken flipped a saturated counter")
	}
	b.Update(pc, true)
	if !b.Lookup(pc) {
		t.Error("two takens did not flip from weak state")
	}
}

func TestBimodalIndexing(t *testing.T) {
	b := newBimodal(16)
	b.Update(0, false)
	b.Update(0, false)
	if !b.Lookup(1) {
		t.Error("training pc 0 perturbed pc 1")
	}
	if b.Lookup(16) { // aliases with 0
		t.Error("pc 16 should alias pc 0 in a 16-entry table")
	}
}

func TestTwoLevelLearnsAlternation(t *testing.T) {
	g := newTwoLevel(256)
	pc := uint64(40)
	var ghr uint32
	correct := 0
	taken := false
	for i := 0; i < 200; i++ {
		taken = !taken // strict alternation; GHR makes it learnable
		if g.Lookup(pc, ghr) == taken && i >= 100 {
			correct++
		}
		g.Update(pc, ghr, taken)
		ghr = (ghr<<1 | map[bool]uint32{true: 1, false: 0}[taken]) & 255
	}
	if correct < 95 {
		t.Errorf("two-level learned alternation %d/100 after warmup", correct)
	}
}

func TestBimodalCannotLearnAlternation(t *testing.T) {
	// Sanity contrast for the test above: bimodal hovers around chance.
	b := newBimodal(256)
	pc := uint64(40)
	correct := 0
	taken := false
	for i := 0; i < 200; i++ {
		taken = !taken
		if b.Lookup(pc) == taken && i >= 100 {
			correct++
		}
		b.Update(pc, taken)
	}
	if correct > 60 {
		t.Errorf("bimodal unexpectedly learned alternation: %d/100", correct)
	}
}

func TestCombinedChoosesBetterComponent(t *testing.T) {
	c := newCombined(256, 256, 256)
	pc := uint64(12)
	var ghr uint32
	taken := false
	correct := 0
	for i := 0; i < 400; i++ {
		taken = !taken
		pred, bim, glob := c.Lookup(pc, ghr)
		if i >= 200 && pred == taken {
			correct++
		}
		c.Update(pc, ghr, taken, bim, glob)
		ghr = (ghr<<1 | map[bool]uint32{true: 1, false: 0}[taken]) & 255
	}
	if correct < 190 {
		t.Errorf("combined predictor achieved only %d/200 on alternation", correct)
	}
}

func TestSaturatingHelpers(t *testing.T) {
	if inc2(3) != 3 || inc2(0) != 1 {
		t.Error("inc2 broken")
	}
	if dec2(0) != 0 || dec2(3) != 2 {
		t.Error("dec2 broken")
	}
}

func TestConstructorsPanicOnBadSizes(t *testing.T) {
	for name, f := range map[string]func(){
		"bimodal":  func() { newBimodal(3) },
		"twolevel": func() { newTwoLevel(0) },
		"combined": func() { newCombined(16, 16, 5) },
		"btb":      func() { newBTB(6, 2) },
		"ras":      func() { newRAS(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

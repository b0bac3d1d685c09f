package trace

import (
	"errors"
	"testing"

	"largewindow/internal/core"
	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/workload"
)

func TestSynthSpecParseCanonical(t *testing.T) {
	a, err := ParseSynth("miss=0.10,mlp=4,ws=256k,entropy=0.8,n=120000,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSynth("mlp=4,miss=0.1,entropy=0.8,ws=262144,n=120000,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if a.Canonical() != b.Canonical() {
		t.Errorf("equal specs canonicalize differently: %q vs %q", a.Canonical(), b.Canonical())
	}
	if a.Name() != b.Name() {
		t.Errorf("equal specs named differently: %q vs %q", a.Name(), b.Name())
	}
	for _, bad := range []string{"", "mlp", "mlp=0", "mlp=9", "miss=1.5", "entropy=2", "ws=100", "n=5", "bogus=1"} {
		if _, err := ParseSynth(bad); err == nil {
			t.Errorf("ParseSynth(%q) accepted", bad)
		}
	}
}

func TestSynthDeterministicBuild(t *testing.T) {
	s, err := ParseSynth("mlp=4,miss=0.2,entropy=0.9,ws=1m,n=50000")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Code) != len(p2.Code) {
		t.Fatalf("code lengths differ: %d vs %d", len(p1.Code), len(p2.Code))
	}
	for i := range p1.Code {
		if p1.Code[i] != p2.Code[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	m1, m2 := emu.New(p1), emu.New(p2)
	if _, err := m1.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	if m1.StreamHash != m2.StreamHash {
		t.Error("same spec executed different streams")
	}
}

// TestSynthCalibration is the check.sh gate: the generator must hit the
// requested miss-ratio and branch-entropy dials within tolerance, and
// the MLP dial must move measured MLP in the right direction.
func TestSynthCalibration(t *testing.T) {
	for _, tc := range []struct {
		spec string
	}{
		{"mlp=4,miss=0.1,entropy=0.8,ws=1m,n=120000,seed=2"},
		{"mlp=2,miss=0.25,entropy=0.5,ws=4m,n=120000,seed=5"},
		{"mlp=1,miss=0.02,entropy=1,ws=1m,n=120000,seed=9"},
	} {
		s, err := ParseSynth(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}

		// Branch dial: measured emulator taken fraction vs requested p.
		m := emu.New(prog)
		if _, err := m.Run(uint64(s.N) + 200_000); err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if !m.Halted {
			t.Fatalf("%s: did not halt (ran %d)", tc.spec, m.InstrCount)
		}
		ratio := float64(m.InstrCount) / float64(s.N)
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("%s: dynamic length %d vs requested %d", tc.spec, m.InstrCount, s.N)
		}
		wantP := s.TakenProb()
		gotF := float64(m.TakenCond) / float64(m.CondCount)
		if diff := gotF - wantP; diff < -0.03 || diff > 0.03 {
			t.Errorf("%s: taken fraction %.4f, want %.4f ± 0.03", tc.spec, gotF, wantP)
		}

		// Miss dial: detailed run on the baseline config. Measured as
		// misses per committed memory access: mispredict squashes replay
		// in-flight loads, and those second accesses hit lines the first
		// (squashed) issue already filled — raw access-based MissRatio
		// would dilute the dial with wrong-path noise the spec can't see.
		p, err := core.New(core.DefaultConfig(), prog)
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.Run(100_000, 0)
		if err != nil && !errors.Is(err, core.ErrBudget) {
			t.Fatalf("%s: detailed run: %v", tc.spec, err)
		}
		memOps := st.ClassCount(isa.ClassLoad) + st.ClassCount(isa.ClassStore)
		gotMiss := float64(p.Hierarchy().L1DStats().Misses) / float64(memOps)
		if diff := gotMiss - s.Miss; diff < -0.05 || diff > 0.05 {
			t.Errorf("%s: DL1 misses per committed access %.4f, want %.4f ± 0.05", tc.spec, gotMiss, s.Miss)
		}
	}
}

// TestSynthMLPDial: more streams per burst must raise measured MLP.
func TestSynthMLPDial(t *testing.T) {
	mlpAt := func(mlp string) float64 {
		s, err := ParseSynth("mlp=" + mlp + ",miss=0.3,entropy=1,ws=4m,n=100000,seed=4")
		if err != nil {
			t.Fatal(err)
		}
		prog, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.New(core.WIBDefault(), prog)
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.Run(80_000, 0)
		if err != nil && !errors.Is(err, core.ErrBudget) {
			t.Fatal(err)
		}
		return st.AvgMLP()
	}
	lo, hi := mlpAt("1"), mlpAt("6")
	if hi <= lo {
		t.Errorf("MLP dial inert: mlp=1 → %.3f, mlp=6 → %.3f", lo, hi)
	}
}

// TestSynthL2Dial: the working set is the L2 dial — a working set
// inside the 256K L2 must show a far lower local L2 miss ratio than one
// that streams past it.
func TestSynthL2Dial(t *testing.T) {
	l2At := func(ws string) float64 {
		s, err := ParseSynth("mlp=4,miss=0.2,entropy=1,ws=" + ws + ",n=150000,seed=6")
		if err != nil {
			t.Fatal(err)
		}
		prog, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.New(core.DefaultConfig(), prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(120_000, 0); err != nil && !errors.Is(err, core.ErrBudget) {
			t.Fatal(err)
		}
		return p.Hierarchy().L2Stats().MissRatio()
	}
	small, large := l2At("64k"), l2At("16m")
	if large < small+0.3 {
		t.Errorf("L2 dial inert: ws=64k → %.3f, ws=16m → %.3f local L2 miss", small, large)
	}
}

func TestSynthSourceIdentity(t *testing.T) {
	a, err := workload.ParseRef("synth:miss=0.10,mlp=4,ws=256k")
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ParseRef("synth:mlp=4,ws=262144,miss=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if a.Identity() != b.Identity() {
		t.Errorf("equivalent synth specs got different identities:\n%s\n%s", a.Identity(), b.Identity())
	}
	if a.Suite() != workload.SuiteExternal {
		t.Errorf("synth suite = %v", a.Suite())
	}
	if workload.IsBench(a) {
		t.Error("synth source claims to be a bench kernel")
	}
	// The strings are formatted once, at parse time, from the spec.
	spec, err := ParseSynth("miss=0.10,mlp=4,ws=256k")
	if err != nil {
		t.Fatal(err)
	}
	if want := "synth:" + spec.Canonical(); a.Ref() != want || a.Identity() != want || a.Name() != spec.Name() {
		t.Errorf("synth source ref %q identity %q name %q, want %q, %q, %q", a.Ref(), a.Identity(), a.Name(), want, want, spec.Name())
	}
}

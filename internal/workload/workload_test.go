package workload

import (
	"fmt"
	"testing"

	"largewindow/internal/emu"
	"largewindow/internal/isa"
)

func TestRegistryComplete(t *testing.T) {
	want := map[Suite][]string{
		SuiteInt:   {"bzip2", "gcc", "gzip", "parser", "perlbmk", "vortex", "vpr"},
		SuiteFP:    {"applu", "art", "facerec", "galgel", "mgrid", "swim", "wupwise"},
		SuiteOlden: {"em3d", "mst", "perimeter", "treeadd"},
	}
	total := 0
	for suite, names := range want {
		var got []Spec
		for _, sp := range All() {
			if sp.Suite == suite {
				got = append(got, sp)
			}
		}
		if len(got) != len(names) {
			t.Fatalf("%v: %d kernels, want %d", suite, len(got), len(names))
		}
		for i, n := range names {
			if got[i].Name != n {
				t.Errorf("%v[%d] = %s, want %s", suite, i, got[i].Name, n)
			}
		}
		total += len(names)
	}
	if len(All()) != total {
		t.Errorf("All() = %d, want %d", len(All()), total)
	}
	if len(Names()) != total {
		t.Errorf("Names() = %d", len(Names()))
	}
	if _, ok := Get("art"); !ok {
		t.Error("Get(art) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get(nope) succeeded")
	}
}

// TestKernelsTerminate runs every kernel at test scale on the emulator:
// they must build, run to Halt within budget, and be deterministic.
func TestKernelsTerminate(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			prog := spec.Build(ScaleTest)
			m1 := emu.New(prog)
			n, err := m1.Run(30_000_000)
			if err != nil {
				t.Fatalf("%s did not halt: %v (after %d instrs)", spec.Name, err, n)
			}
			if n < 1000 {
				t.Errorf("%s ran only %d instructions at test scale", spec.Name, n)
			}
			m2 := emu.New(spec.Build(ScaleTest))
			if _, err := m2.Run(30_000_000); err != nil {
				t.Fatal(err)
			}
			if m1.Snapshot() != m2.Snapshot() {
				t.Errorf("%s is not deterministic", spec.Name)
			}
		})
	}
}

// TestKernelSuiteCharacter checks the coarse instruction-mix properties
// each suite must have for the evaluation's shape to be meaningful.
func TestKernelSuiteCharacter(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			prog := spec.Build(ScaleTest)
			m := emu.New(prog)
			if _, err := m.Run(30_000_000); err != nil {
				t.Fatal(err)
			}
			loads := m.ClassMix[isa.ClassLoad]
			fp := m.ClassMix[isa.ClassFPAdd] + m.ClassMix[isa.ClassFPMult] +
				m.ClassMix[isa.ClassFPDiv] + m.ClassMix[isa.ClassFPSqrt]
			if loads == 0 {
				t.Errorf("%s performs no loads", spec.Name)
			}
			switch spec.Suite {
			case SuiteFP:
				if fp == 0 {
					t.Errorf("FP kernel %s has no FP operations", spec.Name)
				}
			case SuiteInt, SuiteOlden:
				if fp > m.InstrCount/4 && spec.Name != "em3d" {
					t.Errorf("integer kernel %s is %d%% FP", spec.Name, 100*fp/m.InstrCount)
				}
			}
			if m.CondCount == 0 {
				t.Errorf("%s has no conditional branches", spec.Name)
			}
		})
	}
}

func TestScalesDiffer(t *testing.T) {
	small := buildArt(ScaleTest)
	large := buildArt(ScaleRun)
	if large.Image.NonZeroWords() <= small.Image.NonZeroWords() {
		t.Error("run scale not larger than test scale")
	}
}

// TestParseScale: the three names round-trip through Scale.String, and
// anything else — empty, wrong case, a typo — is an error that names the
// valid values, never a default scale.
func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scale
		ok   bool
	}{
		{"test", ScaleTest, true},
		{"run", ScaleRun, true},
		{"full", ScaleFull, true},
		{"", 0, false},
		{"Run", 0, false},
		{"rnu", 0, false},
	} {
		got, err := ParseScale(tc.in)
		if tc.ok {
			if err != nil || got != tc.want || got.String() != tc.in {
				t.Errorf("ParseScale(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
			}
			continue
		}
		want := fmt.Sprintf("unknown scale %q (valid: test, run, full)", tc.in)
		if err == nil || err.Error() != want {
			t.Errorf("ParseScale(%q) error = %v, want %q", tc.in, err, want)
		}
	}
}

func TestSuiteString(t *testing.T) {
	if SuiteInt.String() != "SPEC-INT" || SuiteFP.String() != "SPEC-FP" ||
		SuiteOlden.String() != "Olden" || Suite(9).String() != "suite9" {
		t.Error("suite names wrong")
	}
}

func TestPRNGDeterministic(t *testing.T) {
	a, b := newPRNG(5), newPRNG(5)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("prng not deterministic")
		}
	}
	z := newPRNG(0)
	if z.next() == 0 {
		t.Error("zero seed not remapped")
	}
}

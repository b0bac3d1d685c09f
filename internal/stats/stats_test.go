package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 1, 1}); got != 1 {
		t.Errorf("HM(1,1,1) = %v", got)
	}
	if got := HarmonicMean([]float64{1, 2}); math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("HM(1,2) = %v, want 4/3", got)
	}
	if got := HarmonicMean(nil); got != 0 {
		t.Errorf("HM(nil) = %v", got)
	}
	if got := HarmonicMean([]float64{1, 0}); got != 0 {
		t.Errorf("HM with zero = %v", got)
	}
	if got := HarmonicMean([]float64{1, -2}); got != 0 {
		t.Errorf("HM with negative = %v", got)
	}
	if got := HarmonicMean([]float64{1, math.NaN()}); got != 0 {
		t.Errorf("HM with NaN = %v", got)
	}
}

func TestHarmonicLEArithmetic(t *testing.T) {
	// AM-HM inequality for positive inputs.
	f := func(a, b, c uint8) bool {
		xs := []float64{float64(a)/16 + 0.1, float64(b)/16 + 0.1, float64(c)/16 + 0.1}
		return HarmonicMean(xs) <= ArithMean(xs)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArithMean(t *testing.T) {
	if got := ArithMean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("AM = %v", got)
	}
	if got := ArithMean(nil); got != 0 {
		t.Errorf("AM(nil) = %v", got)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(2, 1); got != 2 {
		t.Errorf("speedup = %v", got)
	}
	if got := Speedup(2, 0); got != 0 {
		t.Errorf("speedup with zero base = %v", got)
	}
}

// TestSplitMix64KnownAnswers: the first outputs of the reference
// splitmix64 stream seeded with 0 are SplitMix64(k·γ), k = 0, 1, 2.
func TestSplitMix64KnownAnswers(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	for k, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := SplitMix64(uint64(k) * gamma); got != want {
			t.Errorf("output %d = %#x, want %#x", k, got, want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(1.2); got != "+20.0%" {
		t.Errorf("Pct(1.2) = %q", got)
	}
	if got := Pct(0.95); got != "-5.0%" {
		t.Errorf("Pct(0.95) = %q", got)
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "T",
		Headers: []string{"name", "value"},
	}
	tbl.AddRow("alpha", 1.5)
	tbl.AddRow("b", "x")
	tbl.AddNote("footnote %d", 7)
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"T\n", "name", "value", "alpha", "1.500", "x", "note: footnote 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	// Columns must be aligned: "value" column starts at the same offset in
	// header and rows.
	lines := strings.Split(out, "\n")
	var headerIdx, rowIdx int = -1, -1
	for i, l := range lines {
		if strings.HasPrefix(l, "name") {
			headerIdx = i
		}
		if strings.HasPrefix(l, "alpha") {
			rowIdx = i
		}
	}
	if headerIdx < 0 || rowIdx < 0 {
		t.Fatalf("table structure missing:\n%s", out)
	}
	if strings.Index(lines[headerIdx], "value") != strings.Index(lines[rowIdx], "1.500") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableRenderNoTitle(t *testing.T) {
	tbl := &Table{Headers: []string{"h"}}
	tbl.AddRow("v")
	var sb strings.Builder
	tbl.Render(&sb)
	if strings.Contains(sb.String(), "=") {
		t.Error("untitled table rendered a title rule")
	}
}

// TestTableRenderDegenerate covers the empty-run shapes a zero-cycle or
// failed sweep produces: no rows, no headers, ragged rows wider than the
// header, and a fully empty table. None may panic, and header-less
// tables must still align their columns.
func TestTableRenderDegenerate(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *Table
		want    []string // substrings that must appear
		wantNot []string // substrings that must not appear
		aligned [2]string
	}{
		{
			name:  "empty table",
			build: func() *Table { return &Table{} },
		},
		{
			name: "headers only, no rows",
			build: func() *Table {
				return &Table{Headers: []string{"bench", "ipc"}}
			},
			want: []string{"bench", "ipc", "---"},
		},
		{
			name: "rows only, no headers",
			build: func() *Table {
				tbl := &Table{}
				tbl.AddRow("treeadd", 0.0)
				tbl.AddRow("em3d-long-name", 1.25)
				return tbl
			},
			want:    []string{"treeadd", "em3d-long-name", "0.000", "1.250"},
			wantNot: []string{"---"},
			aligned: [2]string{"0.000", "1.250"},
		},
		{
			name: "row wider than header",
			build: func() *Table {
				tbl := &Table{Headers: []string{"bench"}}
				tbl.AddRow("mgrid", "extra", "cells")
				return tbl
			},
			want: []string{"bench", "mgrid", "extra", "cells"},
		},
		{
			name: "zero-cycle run rendered",
			build: func() *Table {
				tbl := &Table{Title: "empty run", Headers: []string{"bench", "ipc", "speedup"}}
				tbl.AddRow("treeadd", HarmonicMean(nil), Speedup(0, 0))
				return tbl
			},
			want: []string{"empty run", "treeadd", "0.000"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			tc.build().Render(&sb) // must not panic
			out := sb.String()
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("render missing %q in:\n%s", w, out)
				}
			}
			for _, w := range tc.wantNot {
				if strings.Contains(out, w) {
					t.Errorf("render unexpectedly contains %q in:\n%s", w, out)
				}
			}
			if tc.aligned[0] != "" {
				var cols []int
				for _, l := range strings.Split(out, "\n") {
					for _, cell := range tc.aligned {
						if i := strings.Index(l, cell); i >= 0 {
							cols = append(cols, i)
						}
					}
				}
				if len(cols) != 2 || cols[0] != cols[1] {
					t.Errorf("header-less columns misaligned (%v):\n%s", cols, out)
				}
			}
		})
	}
}

package stats

import (
	"math"
	"testing"
)

func TestStdDev(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"one sample", []float64{2.5}, 0},
		{"identical", []float64{3, 3, 3, 3}, 0},
		{"known", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 2.138089935},
		{"two", []float64{1, 3}, math.Sqrt2},
		{"NaN poisons", []float64{1, math.NaN(), 3}, 0},
		{"Inf poisons", []float64{1, math.Inf(1), 3}, 0},
		{"negative ok", []float64{-1, 1}, math.Sqrt2},
	}
	for _, c := range cases {
		if got := StdDev(c.xs); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("StdDev(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCI95(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"one sample", []float64{2.5}, 0},
		{"zero variance", []float64{2, 2, 2}, 0},
		// n=2, s=sqrt(2), t(1)=12.706: 12.706*sqrt(2)/sqrt(2) = 12.706
		{"two samples", []float64{1, 3}, 12.706},
		// n=5, s=1.581139 (xs 1..5), t(4)=2.776: 2.776*1.581139/sqrt(5)
		{"five samples", []float64{1, 2, 3, 4, 5}, 2.776 * 1.5811388 / math.Sqrt(5)},
		{"NaN poisons", []float64{1, math.NaN()}, 0},
	}
	for _, c := range cases {
		if got := CI95(c.xs); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("CI95(%s) = %v, want %v", c.name, got, c.want)
		}
	}
	// Large N uses the asymptotic critical value: CI must shrink as
	// 1.96*s/sqrt(N).
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 2) // s ≈ 0.5025
	}
	want := 1.96 * StdDev(xs) / 10
	if got := CI95(xs); math.Abs(got-want) > 1e-9 {
		t.Errorf("CI95(large N) = %v, want %v", got, want)
	}
}

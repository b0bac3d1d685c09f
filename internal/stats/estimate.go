package stats

import "math"

// This file holds the statistical estimators behind sampled simulation
// (SMARTS-style interval sampling, DESIGN.md §12): sample standard
// deviation, Student-t 95% confidence intervals over small interval
// counts, and weighted means. All of them follow the HarmonicMean
// hardening convention — degenerate shapes (no samples, one sample,
// NaN/Inf artifacts from empty runs) return 0 instead of propagating
// garbage into tables.

// StdDev returns the sample standard deviation (N-1 denominator) of xs.
// Fewer than two samples — or any NaN/Inf sample — make it undefined and
// return 0.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		sum += x
	}
	mean := sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - mean
		sq += d * d
	}
	return math.Sqrt(sq / float64(len(xs)-1))
}

// tCrit95 holds two-sided Student-t critical values at 95% confidence for
// small degrees of freedom (index = df, 1-based); beyond the table the
// normal approximation 1.96 is close enough (df 30 is already 2.042).
var tCrit95 = []float64{
	0, // df 0: undefined
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the two-sided 95% confidence interval
// for the mean of xs: t(df) * s / sqrt(N), with Student-t critical values
// for small N and the asymptotic 1.96 beyond df 30. Fewer than two
// samples (no variance estimate exists) or NaN/Inf samples return 0.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := StdDev(xs)
	if s == 0 {
		return 0
	}
	df := n - 1
	t := 1.96
	if df < len(tCrit95) {
		t = tCrit95[df]
	}
	return t * s / math.Sqrt(float64(n))
}

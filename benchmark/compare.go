package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// series is one (workload, metric) row of an -out file: a value per run.
type series struct {
	vals []float64
	med  float64
	iqr  float64 // q3 - q1
}

func newSeries(vals []float64) series {
	s := sortedCopy(vals)
	return series{vals: s, med: quantile(s, 0.5), iqr: quantile(s, 0.75) - quantile(s, 0.25)}
}

func readOut(path string) (*outFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var of outFile
	if err := json.Unmarshal(data, &of); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &of, nil
}

// byWorkload groups a file's untraced runs by workload, in file order.
func byWorkload(of *outFile) (names []string, runs map[string][]report) {
	runs = map[string][]report{}
	for _, r := range of.Runs {
		if r.Traced {
			continue
		}
		if _, ok := runs[r.Workload]; !ok {
			names = append(names, r.Workload)
		}
		runs[r.Workload] = append(runs[r.Workload], r)
	}
	return names, runs
}

func metricSeries(runs []report, name string) series {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.Metrics[name].Value
	}
	return newSeries(vals)
}

// worsening is how much worse b's median is than a's, as a share of a's,
// in the metric's own direction (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(d metricDef, a, b series) bool {
	if d.Better == "higher" {
		return b.vals[0] > a.vals[len(a.vals)-1]
	}
	return b.vals[len(b.vals)-1] < a.vals[0]
}

// compareFiles applies each end-to-end metric's own bound to every
// (workload, metric) row of two -out files, a the base and b the change,
// and prints the verdicts:
//
//	ok          b's median is no worse than a's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  either file's own spread (q3-q1 over its median) exceeds
//	            the bound, so the medians cannot tell, unless every run
//	            of b reads better than every run of a
//
// It also reports whether each workload's sim_digest is the same in both
// files: a change is reported, not failed, because a timing-model fix
// moves it legitimately. The result is true when any row regressed or a
// run reported failures.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	fa, err := readOut(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readOut(pathB)
	if err != nil {
		return false, err
	}
	names, runsA := byWorkload(fa)
	_, runsB := byWorkload(fb)
	bad := false
	fmt.Fprintf(w, "%-14s %-16s %-10s %14s %14s %9s %7s  %s\n",
		"workload", "metric", "verdict", "base median", "new median", "change", "bound", "spread base/new")
	for _, name := range names {
		a, b := runsA[name], runsB[name]
		if len(b) == 0 {
			fmt.Fprintf(w, "%-14s missing from %s\n", name, pathB)
			bad = true
			continue
		}
		for _, d := range endToEnd {
			sa, sb := metricSeries(a, d.Name), metricSeries(b, d.Name)
			worse := worsening(d, sa.med, sb.med)
			spreadA, spreadB := ratio(sa.iqr, sa.med), ratio(sb.iqr, sb.med)
			verdict := "ok"
			switch {
			case max(spreadA, spreadB) > d.Bound && !allBetter(d, sa, sb):
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				bad = true
			}
			fmt.Fprintf(w, "%-14s %-16s %-10s %14.6g %14.6g %+8.2f%% %6.0f%%  %.2f%%/%.2f%% (n=%d/%d)\n",
				name, d.Name, verdict, sa.med, sb.med, 100*ratio(sb.med-sa.med, sa.med), 100*d.Bound,
				100*spreadA, 100*spreadB, len(a), len(b))
		}
		digest := "same"
		for _, r := range append(append([]report(nil), a...), b...) {
			if r.SimDigest != a[0].SimDigest {
				digest = "CHANGED"
			}
			if !r.Correct {
				fmt.Fprintf(w, "%-14s a run reported %d failed of %d attempted\n", name, r.Failed, r.Attempted)
				bad = true
			}
		}
		if a[0].Seed != b[0].Seed {
			digest += " (seeds differ)"
		}
		fmt.Fprintf(w, "%-14s %-16s %-10s %s -> %s\n", name, "sim_digest", digest, short(a[0].SimDigest), short(b[0].SimDigest))
	}
	return bad, nil
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

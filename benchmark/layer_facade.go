package main

import (
	_ "embed"
	"encoding/json"
	"strings"

	"largewindow"
)

// baselineJSON is the recorded first baseline: the -out file of
// `go run ./benchmark -repeat 3 -out benchmark/baseline.json` at seed 1.
// Besides the reference numbers it holds every cell's simulated tuple.
//
//go:embed baseline.json
var baselineJSON []byte

// baselineCells returns the recorded simulated tuples of a workload at a
// seed, by cell; nil when the baseline has no such run.
func baselineCells(workload string, seed uint64) map[string]string {
	var of outFile
	if err := json.Unmarshal(baselineJSON, &of); err != nil || of.Quick {
		return nil
	}
	for _, r := range of.Runs {
		if r.Workload == workload && r.Seed == seed {
			cells := make(map[string]string, len(r.Cells))
			for _, tup := range r.Cells {
				cell, _, _ := strings.Cut(tup, "|")
				cells[cell] = tup
			}
			return cells
		}
	}
	return nil
}

// facadeDigest counts the cells whose simulated tuple differs from the
// recorded baseline: 0 for a change meant only to speed the simulator up,
// non-zero after a timing-model change, which re-baselines. Every
// workload reports it, so the runner calls it, not the layered runs.
func facadeDigest(lc *layerCtx, workload string, seed uint64) {
	base := baselineCells(workload, seed)
	if base == nil {
		return
	}
	changed := 0
	for cell, want := range base {
		if lc.untraced.tupleByID[cell] != want {
			changed++
		}
	}
	lc.m.set("facade.digest_changed_cells", float64(changed), len(base))
}

// facadeResultJSON times the schema-versioned encoding of the results of
// the layered run's cells.
func facadeResultJSON(results []*largewindow.Result) probe {
	return func(lc *layerCtx) error {
		id := lc.tr.begin(root(0), "facade", "json.Marshal(Result)", "")
		for _, r := range results {
			if _, err := json.Marshal(r); err != nil {
				return err
			}
		}
		lc.m.set("facade.result_json_us", ratio(lc.tr.end(id)*1e6, float64(len(results))), len(results))
		return nil
	}
}

// facadeGlue records what SimulateContext adds around the layers it
// calls: the untraced pass, which went through the facade, minus the
// layered run's build, construction, restore and run spans of the same
// cells.
func facadeGlue(lc *layerCtx, childSecs float64, cells int) {
	lc.m.set("facade.simulate_glue_ms_per_cell", ratio((lc.untraced.passSeconds(false)-childSecs)*1e3, float64(cells)), cells)
}

package campaign

import "sort"

// Manifest is the deterministic expansion of an experiment set: every
// cell the campaign will run, deduplicated by content ID and sorted by
// (config name, benchmark), so the same experiment selection always
// produces the same manifest — the property that makes "resume" exact
// rather than approximate.
type Manifest struct {
	cells []Cell
}

// NewManifest deduplicates and orders cells into a manifest. Experiments
// share cells aggressively (every figure reuses the 32-IQ/128 baseline);
// deduplication by content ID means shared cells appear — and run — once.
func NewManifest(cells []Cell) Manifest {
	seen := make(map[string]Cell, len(cells))
	for _, c := range cells {
		seen[c.ID()] = c
	}
	out := make([]Cell, 0, len(seen))
	for _, c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Config.Name != out[j].Config.Name {
			return out[i].Config.Name < out[j].Config.Name
		}
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].ID() < out[j].ID() // same labels, different budgets: seen's order must not show
	})
	return Manifest{cells: out}
}

// Cells returns the manifest's cells in deterministic order.
func (m Manifest) Cells() []Cell { return m.cells }

// Len is the number of distinct cells.
func (m Manifest) Len() int { return len(m.cells) }

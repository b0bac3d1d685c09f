package core

import "encoding/json"

// statsFields is Stats without its methods: its exported fields encode
// through their own json tags, and encoding it does not recurse into
// MarshalJSON.
type statsFields Stats

// statsWire is the serialized form of Stats: the tagged fields plus the
// unexported accumulators (class mix, occupancy and MLP sums), which must
// survive the round trip so that derived metrics (AvgROBOccupancy, AvgMLP,
// ClassCount) computed from a cache-served Result are bit-identical to a
// freshly executed one — the campaign resume gate diffs whole tables on
// exactly that property. A new counter needs a tagged field on Stats, its
// line in fold (statswindow.go) and nothing here; a new unexported
// accumulator needs a line in each of the three places below as well
// (TestStatsJSONGuardsNewFields fails, naming it, until it has them).
type statsWire struct {
	statsFields
	ClassMix         [16]uint64 `json:"class_mix"`
	ROBOccupancySum  uint64     `json:"rob_occupancy_sum"`
	OccupancySamples uint64     `json:"occupancy_samples"`
	MLPSum           uint64     `json:"mlp_sum"`
	MLPCyclesTotal   uint64     `json:"mlp_cycles"`
}

// MarshalJSON serializes Stats including the unexported accumulators.
func (s Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(statsWire{statsFields(s), s.classMix, s.robOccupancy, s.occupancySamples, s.mlpSum, s.mlpCycles})
}

// UnmarshalJSON restores Stats, including the unexported accumulators.
func (s *Stats) UnmarshalJSON(data []byte) error {
	var w statsWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*s = Stats(w.statsFields)
	s.classMix, s.robOccupancy, s.occupancySamples, s.mlpSum, s.mlpCycles = w.ClassMix, w.ROBOccupancySum, w.OccupancySamples, w.MLPSum, w.MLPCyclesTotal
	return nil
}

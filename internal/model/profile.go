// Package model implements the mechanistic interval model (Eyerman &
// Eeckhout, TOCS'09; Karkhanis & Smith's first-order out-of-order model)
// for the WIB simulator: a closed-form cycle predictor driven by event
// counts that one cheap functional pass produces, instead of a detailed
// cycle-level simulation per configuration.
//
// The package has three layers:
//
//   - Collect runs a workload once on the functional emulator
//     (~200M instrs/s before the collector's own work, which sets the
//     rate) with stat-counting warm caches, TLB, and branch predictor,
//     extracting a Profile: instruction mix, per-level miss
//     and mispredict counts, an MLP-aware ladder of serialized
//     (non-overlappable) long-miss counts per window size, and a
//     critical-dependency-chain ILP ladder.
//   - Predict evaluates the interval model for any core.Config against a
//     Profile in closed form; Calibration optionally scales raw
//     predictions per (benchmark, config family) from anchor cells the
//     detailed core simulated.
//   - Explore drives a model-pruned design-space sweep: predict every
//     cell, simulate only anchors, the top-K configs, and a seeded
//     random audit slice that measures live model error, and emit a
//     Pareto frontier (IPC vs. WIB bit-vector budget vs. cache size).
//
// A profile depends on the workload and the cache family (mem.Config
// geometry) only — never on the core configuration — so one profile
// serves every window/width/FU point of a sweep sharing that geometry.
package model

import (
	"encoding/json"
	"fmt"
	"math"

	"largewindow/internal/isa"
	"largewindow/internal/mem"
)

// DefaultWindows is the window-size ladder profiles are evaluated on:
// power-of-two effective window sizes covering every configuration the
// experiments sweep (16-entry issue queues to 4K-entry WIBs). Ladder
// series are interpolated between knots and clamped beyond the ends.
var DefaultWindows = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Profile is the event profile of one workload under one cache family:
// everything the interval model needs to predict cycles for any core
// configuration, gathered in a single functional pass.
type Profile struct {
	// Bench and Scale identify the profiled workload.
	Bench string `json:"bench"`
	Scale string `json:"scale"`
	// MemKey is the canonical cache-family identity (the JSON encoding of
	// the mem.Config the profile's warm hierarchy used). Predictions are
	// only valid for configs whose memory geometry matches.
	MemKey string `json:"mem_key"`
	// N is the number of profiled instructions.
	N uint64 `json:"n"`
	// Halted reports the program ran to completion within the budget.
	Halted bool `json:"halted,omitempty"`

	// ClassMix counts retired instructions per functional-unit class,
	// indexed by isa.Class.
	ClassMix [isa.NumClasses]uint64 `json:"class_mix"`

	// Branch events: conditional branches, direction mispredicts of the
	// profiled (warmed) predictor, and BTB target misses of taken
	// transfers.
	CondBranches uint64 `json:"cond_branches"`
	Mispredicts  uint64 `json:"mispredicts"`
	BTBMisses    uint64 `json:"btb_misses"`

	// Instruction-side misses: L1I misses, of which L1IMemMisses also
	// missed the L2.
	L1IMisses    uint64 `json:"l1i_misses"`
	L1IMemMisses uint64 `json:"l1i_mem_misses"`

	// Data-side misses: L1D misses (loads+stores), of which DataMemMisses
	// also missed the L2. LongLoadMisses is the subset of DataMemMisses
	// that were loads — the events that block dependence chains (and
	// trigger the WIB).
	L1DMisses      uint64 `json:"l1d_misses"`
	DataMemMisses  uint64 `json:"data_mem_misses"`
	LongLoadMisses uint64 `json:"long_load_misses"`
	TLBMisses      uint64 `json:"tlb_misses"`

	// Windows is the ladder the two series below are sampled on.
	Windows []int `json:"windows"`
	// SerialMisses[i] is the number of serialized long-load-miss epochs
	// visible to a window of Windows[i] instructions: misses whose full
	// memory latency is exposed because no older independent miss within
	// the window overlaps them. Dependent misses (address computed from
	// an older miss's data) always serialize; independent misses overlap
	// when they fall within one window of their epoch leader. The series
	// is non-increasing in window size by construction.
	SerialMisses []float64 `json:"serial_misses"`
	// ILP[i] is the dataflow-limited IPC of the program when the
	// scheduling scope is Windows[i] instructions: chunk the stream into
	// windows, take each chunk's critical dependency-chain length under
	// default FU latencies, and divide instructions by summed critical
	// paths. Non-decreasing in window size by construction.
	ILP []float64 `json:"ilp"`
}

// MemKey returns the canonical identity of a cache family: the
// deterministic JSON encoding of its mem.Config (struct fields in
// declaration order). Two configs with equal geometry and latencies
// share profiles; any change re-keys them.
func MemKey(cfg mem.Config) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		// mem.Config is a plain data struct; this cannot fail.
		panic(fmt.Sprintf("model: canonicalizing mem config: %v", err))
	}
	return string(b)
}

// interp evaluates a ladder series at window w: piecewise linear in
// log2(w) between knots, clamped at the ends. The ladders are monotone,
// so interpolation preserves monotonicity in w.
func interp(windows []int, series []float64, w float64) float64 {
	if len(windows) == 0 || len(series) != len(windows) {
		return 0
	}
	if w <= float64(windows[0]) {
		return series[0]
	}
	last := len(windows) - 1
	if w >= float64(windows[last]) {
		return series[last]
	}
	lw := math.Log2(w)
	for i := 1; i <= last; i++ {
		if w <= float64(windows[i]) {
			lo, hi := math.Log2(float64(windows[i-1])), math.Log2(float64(windows[i]))
			t := (lw - lo) / (hi - lo)
			return series[i-1] + t*(series[i]-series[i-1])
		}
	}
	return series[last]
}

// SerialAt returns the serialized long-miss count at effective window w.
func (p *Profile) SerialAt(w float64) float64 {
	return interp(p.Windows, p.SerialMisses, w)
}

// ILPAt returns the dataflow-limited IPC at effective window w.
func (p *Profile) ILPAt(w float64) float64 {
	v := interp(p.Windows, p.ILP, w)
	if v < 1e-9 {
		return 1e-9
	}
	return v
}

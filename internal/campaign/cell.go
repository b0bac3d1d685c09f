// Package campaign is the execution engine behind the paper's
// evaluation grid. An experiment set expands into a deterministic
// manifest of (benchmark × configuration × budget) cells; the engine runs
// the cells in manifest order on a bounded worker pool fed by one FIFO
// queue, with per-worker panic isolation, resolves each cell at most once
// (internal/flight), and persists every finished cell's result as a
// schema-versioned JSON record in an on-disk content-addressed store, so
// an interrupted or re-invoked campaign resumes with zero recomputation
// and cache hits survive across processes.
//
// The harness (internal/harness) is a thin view over this package:
// Session memoization, RunAll, and the experiment table generators all
// read through a campaign engine.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"largewindow/internal/core"
	"largewindow/internal/sample"
	"largewindow/internal/workload"
)

// Cell is one unit of campaign work: a benchmark run under one processor
// configuration with a fixed budget. Cells are value types; their
// identity is the content hash of the canonicalized tuple, so the same
// experiment requested by two processes (or two runs of one process)
// names the same cache entry.
type Cell struct {
	Config    core.Config
	Bench     string
	Scale     workload.Scale
	MaxInstr  uint64
	MaxCycles int64
	// SkipInstr is the functional fast-forward window preceding the
	// measured region (0 = fully detailed run). It is part of the cell
	// identity: the same benchmark measured after a different skip is a
	// different experiment.
	SkipInstr uint64
	// Sampling, when non-nil, runs the cell as a SMARTS-style sampled
	// simulation under the given plan instead of one contiguous detailed
	// region. The plan is part of the cell identity — a different plan is
	// a different experiment — and nil keeps pre-sampling cell IDs stable.
	Sampling *sample.Plan
	// Workload is the resolvable workload ref for non-registry sources
	// ("trace:path.wtr", "synth:mlp=4,..."); empty for builder kernels.
	// It is how an executor (local or a remote worker) finds the workload
	// — it may name a local file, so it is NOT part of cell identity.
	Workload string
	// WorkloadID is the content-derived identity of a non-registry
	// workload ("trace:sha256:<hex>", "synth:<canonical-spec>"); empty
	// for builder kernels, which keeps pre-Source cell IDs stable. It IS
	// part of cell identity — two trace files with the same bytes share
	// cells no matter where they live, and distinct content never
	// collides — and executors verify the resolved workload against it
	// before running.
	WorkloadID string
}

// cellKey is the canonical form hashed into a cell ID. Config marshals
// deterministically (struct fields in declaration order; encoding/json
// sorts any map keys), so equal configurations — not equal config *names*
// — yield equal IDs, and any timing-relevant config change re-keys the
// cell instead of serving a stale result.
type cellKey struct {
	Config    core.Config  `json:"config"`
	Bench     string       `json:"bench"`
	Scale     string       `json:"scale"`
	MaxInstr  uint64       `json:"max_instr"`
	MaxCycles int64        `json:"max_cycles"`
	SkipInstr uint64       `json:"skip_instr,omitempty"`
	Sampling  *sample.Plan `json:"sampling,omitempty"`
	// Workload is the content identity (Cell.WorkloadID), never the ref:
	// hashing the ref would re-key cells when a trace file moves.
	Workload string `json:"workload,omitempty"`
}

// idHexLen is the truncated hex length of a cell ID: 16 bytes of SHA-256,
// far beyond collision range for any realizable campaign size.
const idHexLen = 32

// ID returns the cell's stable content-addressed identity.
func (c Cell) ID() string {
	data, err := json.Marshal(cellKey{
		Config:    c.Config,
		Bench:     c.Bench,
		Scale:     c.Scale.String(),
		MaxInstr:  c.MaxInstr,
		MaxCycles: c.MaxCycles,
		SkipInstr: c.SkipInstr,
		Sampling:  c.Sampling,
		Workload:  c.WorkloadID,
	})
	if err != nil {
		// Config is a plain data struct; this cannot fail on real inputs.
		panic(fmt.Sprintf("campaign: canonicalizing cell: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:idHexLen]
}

// String names the cell for logs and progress lines.
func (c Cell) String() string {
	return c.Config.Name + "/" + c.Bench
}

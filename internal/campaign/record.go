package campaign

import (
	"encoding/json"

	"largewindow/internal/core"
	"largewindow/internal/sample"
	"largewindow/internal/schema"
)

// Record is the persisted outcome of one executed cell: the cell's
// identity and labels plus every metric the experiment tables consume.
// Records are written as schema-versioned JSON; decoding accepts any
// version up to schema.ResultVersion and rejects newer ones, and
// golden-file tests pin the v1 and v2 encodings so future schema changes
// cannot silently orphan existing caches.
type Record struct {
	SchemaVersion int `json:"schema_version"`

	CellID    string `json:"cell_id"`
	Config    string `json:"config"`
	Bench     string `json:"bench"`
	Suite     string `json:"suite"`
	Scale     string `json:"scale"`
	MaxInstr  uint64 `json:"max_instr"`
	MaxCycles int64  `json:"max_cycles"`
	SkipInstr uint64 `json:"skip_instr,omitempty"`

	IPC     float64    `json:"ipc"`
	Stats   core.Stats `json:"stats"`
	DL1Miss float64    `json:"dl1_miss"`
	L2Local float64    `json:"l2_local"`
	BrAcc   float64    `json:"br_acc"`

	// Sampled-run fields (schema v2): present only when the cell ran
	// under a sampling plan. IPC above then holds the sampled point
	// estimate (mean of interval IPCs); IPCCI95 is the Student-t 95%
	// confidence half-width around it.
	Sampling     *sample.Plan `json:"sampling,omitempty"`
	Intervals    int          `json:"intervals,omitempty"`
	IPCStdDev    float64      `json:"ipc_stddev,omitempty"`
	IPCCI95      float64      `json:"ipc_ci95,omitempty"`
	IntervalIPCs []float64    `json:"interval_ipcs,omitempty"`

	// Workload identity fields (schema v3): present only for cells whose
	// workload is not a builder kernel. Workload is the resolvable ref
	// the cell was submitted with; WorkloadID is the content identity
	// folded into the cell ID.
	Workload   string `json:"workload,omitempty"`
	WorkloadID string `json:"workload_id,omitempty"`
}

// recordWire avoids MarshalJSON/UnmarshalJSON recursion.
type recordWire Record

// MarshalJSON stamps the record with the minimal result schema version
// its fields require: v1 for plain cells (byte-identical to
// pre-sampling encoders, so existing caches and fixtures stay valid),
// v2 when sampling fields are present, v3 when workload identity fields
// are present. A record that already carries its stamp — one decoded
// from another encoding — is encoded in place, the rest from a stamped
// copy.
func (r *Record) MarshalJSON() ([]byte, error) {
	version := 1
	if r.Sampling != nil {
		version = 2
	}
	if r.Workload != "" || r.WorkloadID != "" {
		version = schema.ResultVersion
	}
	w := (*recordWire)(r)
	if w.SchemaVersion != version {
		stamped := *w
		stamped.SchemaVersion = version
		w = &stamped
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a record, rejecting schema versions newer than
// this reader understands. It decodes in place: a copy of the record
// would be one more allocation the size of the record per decode.
func (r *Record) UnmarshalJSON(data []byte) error {
	*r = Record{}
	if err := json.Unmarshal(data, (*recordWire)(r)); err != nil {
		return err
	}
	return schema.Check(r.SchemaVersion, schema.ResultVersion, "campaign record")
}

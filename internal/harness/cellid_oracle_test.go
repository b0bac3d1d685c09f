package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/sample"
	"largewindow/internal/workload"
)

// oracleCellKey and oracleCellID are campaign.Cell.ID as it was first
// written: json.Marshal of the canonical key, SHA-256, the first 32 hex
// characters. Every cache on disk is keyed by these IDs, so the encoder
// behind Cell.ID may change but its output may not.
type oracleCellKey struct {
	Config    core.Config  `json:"config"`
	Bench     string       `json:"bench"`
	Scale     string       `json:"scale"`
	MaxInstr  uint64       `json:"max_instr"`
	MaxCycles int64        `json:"max_cycles"`
	SkipInstr uint64       `json:"skip_instr,omitempty"`
	Sampling  *sample.Plan `json:"sampling,omitempty"`
	Workload  string       `json:"workload,omitempty"`
}

func oracleCellID(c campaign.Cell) string {
	data, err := json.Marshal(oracleCellKey{
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
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:32]
}

// TestCellIDMatchesOracle: every kernel and two synth programs, on the
// explore grid and Figure 4's machines, plain, skipped and sampled, plus
// a trace workload's cell, get the IDs the original encoder gave them.
func TestCellIDMatchesOracle(t *testing.T) {
	refs := workload.Names()
	refs = append(refs, "synth:mlp=4,miss=0.1,ws=4m,n=10000", "synth:mlp=1,miss=0.3,entropy=0.5,seed=3")
	cfgs := append(ExploreGrid(), fig4().Configs()...)
	plan := &sample.Plan{Intervals: 4, Period: 2000, Length: 200, Warmup: 200, Seed: 11, Random: true}
	sessions := []*Session{
		NewSession(Options{Scale: workload.ScaleRun, MaxInstr: 30_000}),
		NewSession(Options{Scale: workload.ScaleTest, SkipInstr: 5_000}),
		NewSession(Options{Scale: workload.ScaleFull, Sampling: plan}),
		NewSession(Options{Scale: workload.ScaleTest, Sampling: &sample.Plan{Intervals: 3}}),
	}
	var cells []campaign.Cell
	for _, s := range sessions {
		for _, ref := range refs {
			src, err := s.resolveRef(ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range cfgs {
				cells = append(cells, s.cell(cfg, src))
			}
		}
	}
	trace := sessions[0].cell(core.DefaultConfig(), workload.Spec{Name: "gzip"}.Source())
	trace.Bench, trace.Workload, trace.WorkloadID = "gzip", "trace:/tmp/gzip.wtr", "trace:sha256:"+oracleCellID(trace)
	cells = append(cells, trace)
	for _, c := range cells {
		if got, want := c.ID(), oracleCellID(c); got != want {
			t.Fatalf("%s (%s, skip %d, sampled %v): ID %s, oracle %s", c, c.WorkloadID, c.SkipInstr, c.Sampling != nil, got, want)
		}
	}
	if len(cells) < 18*len(cfgs) {
		t.Fatalf("only %d cells checked", len(cells))
	}
}

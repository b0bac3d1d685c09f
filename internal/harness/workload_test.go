package harness

import (
	"testing"

	"largewindow/internal/core"
	"largewindow/internal/sample"
	"largewindow/internal/trace"
	"largewindow/internal/workload"
)

// TestExternalWorkloadsSampledCachedResume is the acceptance path: a
// trace: and a synth: workload run through a sampled, cached campaign,
// and a resumed session over the same refs serves every cell from the
// store — zero recomputation, because the cell identity derives from
// workload content, not from file paths or in-process state.
func TestExternalWorkloadsSampledCachedResume(t *testing.T) {
	src, err := workload.ParseRef("bench:art")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(src, workload.ScaleTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	tracePath := t.TempDir() + "/art.wtr"
	if err := tr.WriteFile(tracePath); err != nil {
		t.Fatal(err)
	}

	refs := []string{
		"trace:" + tracePath,
		"synth:mlp=2,miss=0.1,entropy=0.7,ws=64k,n=30000",
	}
	plan, err := sample.Parse("n=6,len=1500,warm=500,period=5000")
	if err != nil {
		t.Fatal(err)
	}
	cacheDir := t.TempDir()
	cfg := core.WIBDefault()

	s1 := NewSession(Options{
		Scale:      workload.ScaleTest,
		Benchmarks: refs,
		Sampling:   &plan,
		CacheDir:   cacheDir,
	})
	res1, err := s1.RunAll(cfg)
	if err != nil {
		t.Fatalf("sampled external campaign: %v", err)
	}
	if len(res1) != 2 {
		t.Fatalf("got %d results, want 2: %v", len(res1), res1)
	}
	for key, r := range res1 {
		if r.Intervals == 0 {
			t.Errorf("%s: not sampled (0 intervals)", key)
		}
		if r.Suite != workload.SuiteFP.String() && r.Suite != workload.SuiteExternal.String() {
			t.Errorf("%s: suite = %v", key, r.Suite)
		}
	}
	traceRes, ok := res1["trace:"+tracePath]
	if !ok || traceRes.Bench != "art" {
		t.Errorf("trace result missing or misnamed: %+v", traceRes)
	}

	// Resume: a fresh session over the same refs must recompute nothing.
	s2 := NewSession(Options{
		Scale:      workload.ScaleTest,
		Benchmarks: refs,
		Sampling:   &plan,
		CacheDir:   cacheDir,
		Resume:     true,
	})
	res2, err := s2.RunAll(cfg)
	if err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}
	if snap := s2.Campaign().Snapshot(); snap.Executed != 0 || snap.CacheHits != 2 {
		t.Errorf("resume snapshot %+v; want 0 executed, 2 cache hits", snap)
	}
	for key, r1 := range res1 {
		r2, ok := res2[key]
		if !ok {
			t.Fatalf("%s missing after resume", key)
		}
		if r1.IPC != r2.IPC || r1.Stats.StreamHash != r2.Stats.StreamHash {
			t.Errorf("%s diverges after resume: IPC %v vs %v", key, r1.IPC, r2.IPC)
		}
	}
}

// TestExternalWorkloadIdentityStability: spelling-equivalent refs and a
// relocated trace file must address the same campaign cells.
func TestExternalWorkloadIdentityStability(t *testing.T) {
	src, err := workload.ParseRef("bench:treeadd")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(src, workload.ScaleTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pathA, pathB := dir+"/a.wtr", dir+"/b.wtr.gz"
	if err := tr.WriteFile(pathA); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteFile(pathB); err != nil {
		t.Fatal(err)
	}

	s := NewSession(Options{Scale: workload.ScaleTest})
	cellFor := func(ref string) string {
		t.Helper()
		w, err := workload.ParseRef(ref)
		if err != nil {
			t.Fatal(err)
		}
		return s.cell(core.DefaultConfig(), w).ID()
	}
	if a, b := cellFor("trace:"+pathA), cellFor("trace:"+pathB); a != b {
		t.Errorf("same trace content at two paths got different cells: %s vs %s", a, b)
	}
	if a, b := cellFor("synth:mlp=4,miss=0.10,ws=256k"), cellFor("synth:ws=262144,mlp=4,miss=0.1"); a != b {
		t.Errorf("spelling-equivalent synth specs got different cells: %s vs %s", a, b)
	}
	// And a bench kernel's cell must NOT change shape — the workload key
	// stays absent so pre-Source campaign stores resume unchanged.
	spec, _ := workload.Get("treeadd")
	cell := s.cell(core.DefaultConfig(), spec.Source())
	if cell.Workload != "" || cell.WorkloadID != "" {
		t.Errorf("bench cell grew workload fields: %+v", cell)
	}
}

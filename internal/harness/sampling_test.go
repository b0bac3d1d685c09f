package harness

import (
	"bytes"
	"encoding/json"
	"sort"
	"sync"
	"testing"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/sample"
	"largewindow/internal/workload"
)

// sampledCampaignBytes runs a small sampled campaign and returns its
// records as canonical JSON: every cell's persisted record, sorted by
// cell ID, marshaled as one blob.
func sampledCampaignBytes(t *testing.T, parallel int) []byte {
	t.Helper()
	dir := t.TempDir()
	s := NewSession(Options{
		Scale:    workload.ScaleTest,
		Parallel: parallel,
		CacheDir: dir,
		Sampling: &sample.Plan{Intervals: 4, Period: 2000, Length: 200, Warmup: 200, Seed: 11, Random: true},
		Benchmarks: []string{
			"mgrid", "treeadd", "gzip",
		},
	})
	for _, cfg := range []core.Config{core.DefaultConfig(), core.WIBDefault()} {
		if _, err := s.RunAll(cfg); err != nil {
			t.Fatal(err)
		}
	}
	store := s.store
	if store == nil {
		t.Fatal("no store")
	}
	ids, err := store.IDs()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(ids)
	if len(ids) != 6 {
		t.Fatalf("campaign persisted %d records, want 6", len(ids))
	}
	var blob bytes.Buffer
	for _, id := range ids {
		rec, err := store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		blob.Write(data)
		blob.WriteByte('\n')
	}
	return blob.Bytes()
}

// TestSampledCampaignDeterministic: the same plan must yield
// byte-identical records across repeated runs AND across worker-pool
// widths — sampled cells are single-threaded internally, so campaign
// parallelism must never leak into results.
func TestSampledCampaignDeterministic(t *testing.T) {
	ref := sampledCampaignBytes(t, 1)
	for _, par := range []int{1, 4} {
		if got := sampledCampaignBytes(t, par); !bytes.Equal(got, ref) {
			t.Errorf("parallel=%d records differ from the parallel=1 reference", par)
		}
	}
}

// TestSampledSessionResults: the harness view carries the sampled
// estimators through record conversion, and sampled cells resolve through
// the persistent cache exactly like detailed ones (a resumed session
// recomputes nothing).
func TestSampledSessionResults(t *testing.T) {
	dir := t.TempDir()
	opt := Options{
		Scale:      workload.ScaleTest,
		CacheDir:   dir,
		Sampling:   &sample.Plan{Intervals: 3, Period: 2000, Length: 200, Warmup: 200},
		Benchmarks: []string{"mgrid"},
	}
	spec, _ := workload.Get("mgrid")
	src := spec.Source()
	s := NewSession(opt)
	res, err := s.Run(core.WIBDefault(), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampling == nil || res.Intervals != 3 {
		t.Fatalf("sampled result missing plan/intervals: %+v", res)
	}
	if res.IPC <= 0 || res.IPCStdDev < 0 || res.IPCCI95 < 0 {
		t.Errorf("sampled estimators: IPC=%v sd=%v ci=%v", res.IPC, res.IPCStdDev, res.IPCCI95)
	}
	if res.Stats.Skipped == 0 {
		t.Error("sampled result records no functional coverage (Skipped == 0)")
	}

	opt.Resume = true
	s2 := NewSession(opt)
	res2, err := s2.Run(core.WIBDefault(), src)
	if err != nil {
		t.Fatal(err)
	}
	if snap := s2.Campaign().Snapshot(); snap.Executed != 0 || snap.CacheHits != 1 {
		t.Errorf("resumed sampled cell re-executed: %+v", snap)
	}
	if res2.IPC != res.IPC || res2.IPCCI95 != res.IPCCI95 {
		t.Errorf("cache-served sampled result differs: %v±%v vs %v±%v",
			res2.IPC, res2.IPCCI95, res.IPC, res.IPCCI95)
	}
}

// TestConcurrentAutoPeriodCellsAgree: an auto-period plan is resolved
// against the program's measured length, a full functional pass the
// session memoizes per workload. Concurrent cells of one workload (a
// fleet worker's slots, a parallel campaign's configs) must share that
// pass through the single-flight memo and come out as the same record.
// Run under -race: the memo is the only state the cells share.
func TestConcurrentAutoPeriodCellsAgree(t *testing.T) {
	s := NewSession(Options{})
	cell := campaign.Cell{Config: core.WIBDefault(), Bench: "mgrid", Scale: workload.ScaleTest,
		MaxCycles: 10_000_000, Sampling: &sample.Plan{Intervals: 3, Length: 200, Warmup: 200}}
	const cells = 6
	recs := make([][]byte, cells)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, err := s.ExecCell(cell)
			if err != nil {
				t.Errorf("cell %d: %v", i, err)
				return
			}
			if recs[i], err = json.Marshal(rec); err != nil {
				t.Errorf("cell %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	for i, rec := range recs {
		if !bytes.Equal(rec, recs[0]) {
			t.Errorf("cell %d's record differs from cell 0's:\n%s\n%s", i, rec, recs[0])
		}
	}
	if len(recs[0]) == 0 || !bytes.Contains(recs[0], []byte(`"period"`)) {
		t.Errorf("record carries no resolved plan: %s", recs[0])
	}
	spec, _ := workload.Get("mgrid")
	_, _, first := s.progLen.Do(spec.Source().Identity()+"/"+cell.Scale.String(), func() (uint64, error) { return 0, nil })
	if first {
		t.Error("the cells did not size mgrid through the session's memo")
	}
}

package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/obs"
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
			rec, err := s.ExecCell(cell, nil)
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

// TestExecCellReportsIntervals: ExecCell's onInterval announces a sampled
// cell's plan (0 of N) and then each measured window in turn; a cell run
// through ExecCell directly, as a fleet worker runs its leases, is not
// the session engine's, so at no report is anything in flight on the
// session. A detailed cell never calls it.
func TestExecCellReportsIntervals(t *testing.T) {
	s := NewSession(Options{})
	cell := campaign.Cell{Config: core.WIBDefault(), Bench: "mgrid", Scale: workload.ScaleTest,
		MaxCycles: 10_000_000, Sampling: &sample.Plan{Intervals: 3, Length: 200, Warmup: 200}}
	var got []string
	if _, err := s.ExecCell(cell, func(done, planned int) {
		got = append(got, fmt.Sprintf("%d/%d", done, planned))
		if iv := s.Snapshot().InFlight; iv != (obs.InFlight{}) {
			t.Errorf("at report %d/%d the session has %d/%d in flight, want nothing", done, planned, iv.Done, iv.Planned)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"0/3", "1/3", "2/3", "3/3"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("onInterval calls %v, want %v", got, want)
	}
	cell.Sampling, cell.MaxInstr = nil, 2000
	if _, err := s.ExecCell(cell, func(int, int) { t.Error("a detailed cell reported an interval") }); err != nil {
		t.Fatal(err)
	}
}

// TestSampledCellShowsInFlight: a sampled cell the session's engine runs
// is in the session's snapshot while it runs, as its last report: k of N
// intervals with k/N of a cell's credit, on the progress line too. Once
// it ends, nothing is in flight. The plan's period fits three of its
// four windows into mgrid, so the cell ends at 3/4. The session's log
// line for the cell, written after its last window and before it ends,
// hands the test goroutine the snapshot's turn, so no sleep or poll
// times it.
func TestSampledCellShowsInFlight(t *testing.T) {
	spec, _ := workload.Get("mgrid")
	prog, err := spec.Source().Build(workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	length, err := sample.ProgramLength(prog)
	if err != nil {
		t.Fatal(err)
	}
	ran, resume := make(chan struct{}), make(chan struct{})
	s := NewSession(Options{Parallel: 1, Log: writerFunc(func(p []byte) {
		if bytes.Contains(p, []byte("ran mgrid")) {
			ran <- struct{}{}
			<-resume
		}
	})})
	cell := campaign.Cell{Config: core.WIBDefault(), Bench: "mgrid", Scale: workload.ScaleTest, MaxCycles: 10_000_000,
		Sampling: &sample.Plan{Intervals: 4, Period: length / 3, Length: 200, Warmup: 200}}
	ended := make(chan error, 1)
	go func() {
		_, err := s.Campaign().Run(cell)
		ended <- err
	}()
	select {
	case <-ran:
	case err := <-ended:
		t.Fatalf("the cell ended without its log line: %v", err)
	}
	snap := s.Snapshot()
	close(resume)
	if iv := snap.InFlight; iv.Done != 3 || iv.Planned != 4 || iv.Credit() != 0.75 {
		t.Errorf("in flight %d/%d, credit %v; want 3/4, credit 0.75", iv.Done, iv.Planned, iv.Credit())
	}
	if line := snap.Progress(0).Line(); !strings.Contains(line, "interval 3/4") {
		t.Errorf("progress line %q does not show interval 3/4", line)
	}
	if err := <-ended; err != nil {
		t.Fatal(err)
	}
	if iv := s.Snapshot().InFlight; iv != (obs.InFlight{}) {
		t.Errorf("after the cell ended: %d/%d in flight, credit %v; want nothing", iv.Done, iv.Planned, iv.Credit())
	}
}

// writerFunc is an io.Writer that hands each write to a function.
type writerFunc func(p []byte)

func (f writerFunc) Write(p []byte) (int, error) {
	f(p)
	return len(p), nil
}

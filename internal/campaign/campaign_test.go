package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"largewindow/internal/core"
	"largewindow/internal/sample"
	"largewindow/internal/workload"
)

func testCell(name string, iq int, bench string) Cell {
	cfg := core.ScaledConfig(iq, 128)
	if name != "" {
		cfg.Name = name
	}
	return Cell{Config: cfg, Bench: bench, Scale: workload.ScaleTest, MaxInstr: 5000, MaxCycles: 1 << 20}
}

func fakeExec(c Cell) (*Record, error) {
	rec := &Record{
		Config:    c.Config.Name,
		Bench:     c.Bench,
		Suite:     "SPEC-INT",
		Scale:     c.Scale.String(),
		MaxInstr:  c.MaxInstr,
		MaxCycles: c.MaxCycles,
		IPC:       1.5,
		DL1Miss:   0.1,
	}
	rec.Stats.Committed = c.MaxInstr
	rec.Stats.Cycles = int64(c.MaxInstr) * 2
	return rec, nil
}

func TestCellIDStableAndDiscriminating(t *testing.T) {
	a := testCell("", 64, "gzip")
	if a.ID() != a.ID() {
		t.Error("cell ID not stable")
	}
	if len(a.ID()) != idHexLen {
		t.Errorf("cell ID length %d, want %d", len(a.ID()), idHexLen)
	}
	variants := []Cell{
		testCell("", 64, "art"),   // different benchmark
		testCell("", 128, "gzip"), // different config contents
	}
	scaled := a
	scaled.Scale = workload.ScaleRun
	budget := a
	budget.MaxInstr = 9999
	cycles := a
	cycles.MaxCycles = 42
	variants = append(variants, scaled, budget, cycles)
	for i, v := range variants {
		if v.ID() == a.ID() {
			t.Errorf("variant %d collides with base cell", i)
		}
	}
	// The ID hashes config CONTENTS, not the display name: two configs
	// that differ only in Name still name different cells (the name is
	// part of the config struct), but two identical configs always match.
	b := testCell("", 64, "gzip")
	if b.ID() != a.ID() {
		t.Error("identical cells produced different IDs")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec, _ := fakeExec(testCell("", 64, "gzip"))
	rec.CellID = "abc123"
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"schema_version":1`) {
		t.Errorf("encoded record missing schema version: %s", data)
	}
	var back Record
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	back.SchemaVersion = 0 // stamp is an encoding detail
	rec.SchemaVersion = 0
	if fmt.Sprintf("%+v", back) != fmt.Sprintf("%+v", *rec) {
		t.Errorf("round trip mismatch:\n in=%+v\nout=%+v", *rec, back)
	}
}

// TestRecordEncodesOnce: the record's own encoder already gives the bytes
// json.Marshal would (compact, HTML-escaped), so the store and the
// coordinator call it directly.
func TestRecordEncodesOnce(t *testing.T) {
	plain, _ := fakeExec(testCell("<a&b>", 64, "gzip"))
	plain.CellID = "abc123"
	sampled := *plain
	sampled.Sampling = &sample.Plan{Intervals: 4, Period: 2000, Length: 200}
	sampled.IntervalIPCs = []float64{1.25, 0.5, 1e-9, 3}
	external := *plain
	external.Workload, external.WorkloadID = "trace:/tmp/<x>&y\u2028.wtr", "trace:sha256:00"
	for _, rec := range []*Record{plain, &sampled, &external} {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rec.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("MarshalJSON differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
	}
}

func TestRecordRejectsFutureSchema(t *testing.T) {
	var rec Record
	err := json.Unmarshal([]byte(`{"schema_version":99,"cell_id":"x"}`), &rec)
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Errorf("future schema accepted: %v", err)
	}
}

// TestRecordGoldenV1 pins the v1 on-disk encoding: the checked-in golden
// file must keep decoding (and keep its metric values) no matter how the
// in-memory types evolve, or existing campaign caches would be orphaned.
func TestRecordGoldenV1(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "record_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("golden v1 record no longer decodes: %v", err)
	}
	if rec.SchemaVersion != 1 || rec.Bench != "mgrid" || rec.Config != "WIB/2048" {
		t.Errorf("golden labels: %+v", rec)
	}
	if rec.IPC != 2.4381 || rec.Stats.Committed != 300000 || rec.Stats.Cycles != 123456 {
		t.Errorf("golden metrics: IPC=%v committed=%d cycles=%d", rec.IPC, rec.Stats.Committed, rec.Stats.Cycles)
	}
	if rec.Stats.AvgMLP() == 0 {
		t.Error("golden unexported MLP accumulators lost in decode")
	}
}

func TestStorePutGet(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cell := testCell("", 64, "gzip")
	rec, _ := fakeExec(cell)
	rec.CellID = cell.ID()
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(cell.ID())
	if err != nil || got == nil {
		t.Fatalf("Get: %v %v", got, err)
	}
	if got.Bench != "gzip" || got.Stats.Committed != 5000 {
		t.Errorf("got %+v", got)
	}
	if missing, err := st.Get(strings.Repeat("ab", 16)); missing != nil || err != nil {
		t.Errorf("missing entry: %v %v", missing, err)
	}
	ids, err := st.IDs()
	if err != nil || len(ids) != 1 || ids[0] != cell.ID() {
		t.Errorf("IDs = %v, %v", ids, err)
	}
}

func TestStoreCorruptEntryIsAnError(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := testCell("", 64, "gzip").ID()
	if err := os.MkdirAll(filepath.Dir(st.Path(id)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.Path(id), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(id); err == nil {
		t.Error("corrupt entry returned no error")
	}
	// A record filed under the wrong ID is caught too.
	other := testCell("", 128, "art")
	rec, _ := fakeExec(other)
	rec.CellID = other.ID()
	data, _ := json.Marshal(rec)
	if err := os.WriteFile(st.Path(id), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(id); err == nil || !strings.Contains(err.Error(), "names cell") {
		t.Errorf("misfiled record accepted: %v", err)
	}
}

// TestStoreFirstPutMakesItsShard: a write makes its shard directory only
// when it finds it missing. A fresh store's first record into an absent
// shard must still land, as the bytes PutEncoded and GetEncoded agree on.
func TestStoreFirstPutMakesItsShard(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cell := testCell("", 64, "gzip")
	rec, _ := fakeExec(cell)
	rec.CellID = cell.ID()
	if _, err := os.Stat(filepath.Dir(st.Path(cell.ID()))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("fresh store already has the shard (%v)", err)
	}
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get(cell.ID()); err != nil || got == nil || got.Stats.Committed != rec.Stats.Committed {
		t.Fatalf("first record into a new shard: %+v, %v", got, err)
	}
	file, err := os.ReadFile(st.Path(cell.ID()))
	if err != nil {
		t.Fatal(err)
	}
	if enc, err := st.GetEncoded(cell.ID()); err != nil || !bytes.Equal(enc, file) {
		t.Errorf("GetEncoded differs from the file (%v)", err)
	}
	if enc, err := st.GetEncoded(strings.Repeat("ab", 16)); enc != nil || err != nil {
		t.Errorf("missing entry: %q, %v", enc, err)
	}
}

// TestStoreConcurrentPutsOfOneID: writers racing on one ID, and on making
// its shard, leave one complete record and no temp file behind.
func TestStoreConcurrentPutsOfOneID(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cell := testCell("", 64, "gzip")
	rec, _ := fakeExec(cell)
	rec.CellID = cell.ID()
	const writers = 8
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func() { errs <- st.Put(rec) }()
	}
	for i := 0; i < writers; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	entries, err := os.ReadDir(filepath.Dir(st.Path(cell.ID())))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != cell.ID()+".json" {
		t.Errorf("shard holds %v, want the one record", entries)
	}
	compact, _ := json.Marshal(rec)
	var want bytes.Buffer
	json.Indent(&want, compact, "", "  ")
	want.WriteByte('\n')
	if got, err := os.ReadFile(st.Path(cell.ID())); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("record after concurrent writes is not the one written (%v)", err)
	}
}

func TestEngineExecutesAndMemoizes(t *testing.T) {
	var calls atomic.Int32
	eng := NewEngine(func(c Cell) (*Record, error) {
		calls.Add(1)
		return fakeExec(c)
	}, Options{Workers: 4})
	cell := testCell("", 64, "gzip")
	r1, err := eng.Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("same cell returned different records")
	}
	if calls.Load() != 1 {
		t.Errorf("executed %d times, want 1", calls.Load())
	}
	if r1.CellID != cell.ID() {
		t.Errorf("record cell ID %q, want %q", r1.CellID, cell.ID())
	}
	s := eng.Snapshot()
	if s.Total != 1 || s.Done != 1 || s.Executed != 1 || s.CacheHits != 0 {
		t.Errorf("snapshot %+v", s)
	}
}

// TestEngineParallelSingleFlight hammers the engine with concurrent
// requests over a small cell set: each cell must execute exactly once,
// every caller must get the same pointer, and the pool must stay within
// its worker bound.
func TestEngineParallelSingleFlight(t *testing.T) {
	var calls, inFlight, peak atomic.Int32
	const workers = 3
	eng := NewEngine(func(c Cell) (*Record, error) {
		calls.Add(1)
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer inFlight.Add(-1)
		return fakeExec(c)
	}, Options{Workers: workers})

	cells := make([]Cell, 8)
	for i := range cells {
		cells[i] = testCell("", 64, fmt.Sprintf("bench%d", i))
	}
	const callers = 6
	results := make([][]*Record, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g] = make([]*Record, len(cells))
			for i, c := range cells {
				r, err := eng.Run(c)
				if err != nil {
					t.Errorf("run %s: %v", c, err)
					return
				}
				results[g][i] = r
			}
		}()
	}
	wg.Wait()
	if int(calls.Load()) != len(cells) {
		t.Errorf("executions = %d, want %d", calls.Load(), len(cells))
	}
	if peak.Load() > workers {
		t.Errorf("peak concurrency %d exceeded worker bound %d", peak.Load(), workers)
	}
	for g := 1; g < callers; g++ {
		for i := range cells {
			if results[g][i] != results[0][i] {
				t.Errorf("caller %d cell %d got a different record pointer", g, i)
			}
		}
	}
}

// TestPoolDrainsPrimedManifest: a pool of 4 workers executes every cell
// of a primed manifest exactly once and Wait returns when the last one
// has finished.
func TestPoolDrainsPrimedManifest(t *testing.T) {
	var calls atomic.Int32
	eng := NewEngine(func(c Cell) (*Record, error) {
		calls.Add(1)
		return fakeExec(c)
	}, Options{Workers: 4})
	var cells []Cell
	for i := 0; i < 64; i++ {
		cells = append(cells, testCell("", 64, fmt.Sprintf("b%02d", i)))
	}
	eng.Prime(cells)
	eng.Wait()
	if int(calls.Load()) != len(cells) {
		t.Errorf("executed %d of %d primed cells", calls.Load(), len(cells))
	}
	if s := eng.Snapshot(); s.Done != uint64(len(cells)) {
		t.Errorf("done = %d, want %d", s.Done, len(cells))
	}
}

// TestPrimedCellsRunInManifestOrder pins the queue discipline the
// experiments command relies on to stream tables while the pool works:
// one worker executes primed cells in the order they were primed.
func TestPrimedCellsRunInManifestOrder(t *testing.T) {
	var got []string // one worker: appends are serialised by the pool
	eng := NewEngine(func(c Cell) (*Record, error) {
		got = append(got, c.Bench)
		return fakeExec(c)
	}, Options{Workers: 1})
	var cells []Cell
	var want []string
	for i := 0; i < 8; i++ {
		cells = append(cells, testCell("", 64, fmt.Sprintf("b%02d", i)))
		want = append(want, cells[i].Bench)
	}
	eng.Prime(cells)
	eng.Wait()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("execution order %v, want manifest order %v", got, want)
	}
}

// TestEnqueueRacesLastWorkerExit hammers the window in which a cell is
// enqueued just as the last worker finds the queue empty: every Run must
// still get its own cell's record, Wait must return, and the idle engine
// must hold no goroutines.
func TestEnqueueRacesLastWorkerExit(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			eng := NewEngine(func(c Cell) (*Record, error) {
				return &Record{Bench: c.Bench}, nil
			}, Options{Workers: workers})
			const callers, cells = 4, 2000
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := g; i < cells; i += callers {
						// One cell at a time: the pool goes idle between
						// most of this caller's Runs.
						c := testCell("", 64, fmt.Sprintf("b%04d", i))
						rec, err := eng.Run(c)
						if err != nil || rec.Bench != c.Bench || rec.CellID != c.ID() {
							t.Errorf("Run(%s) = %+v, %v", c.Bench, rec, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			eng.Wait()
			if s := eng.Snapshot(); s.Done != cells || s.Executed != cells {
				t.Errorf("snapshot %+v, want %d done and executed", s, cells)
			}
			// The last worker resolves its cell before it gives up its
			// slot, so allow it a moment to get there.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("idle engine holds %d goroutines over the baseline of %d", n-baseline, baseline)
			}
		})
	}
}

// TestEnginePanicIsolation: a panicking executor fails its own cell and
// nothing else — later cells still run, and the engine doesn't hang on
// an unresolved single-flight slot.
func TestEnginePanicIsolation(t *testing.T) {
	eng := NewEngine(func(c Cell) (*Record, error) {
		if c.Bench == "boom" {
			panic("injected executor panic")
		}
		return fakeExec(c)
	}, Options{Workers: 2})
	if _, err := eng.Run(testCell("", 64, "boom")); err == nil ||
		!strings.Contains(err.Error(), "injected executor panic") {
		t.Errorf("panic not converted to error: %v", err)
	}
	if _, err := eng.Run(testCell("", 64, "ok")); err != nil {
		t.Errorf("healthy cell after panic: %v", err)
	}
	s := eng.Snapshot()
	if s.Failed != 1 || s.Done != 2 {
		t.Errorf("snapshot %+v", s)
	}
}

func TestEngineTransientRetry(t *testing.T) {
	sentinel := errors.New("transient blip")
	var calls atomic.Int32
	var log bytes.Buffer
	eng := NewEngine(func(c Cell) (*Record, error) {
		if calls.Add(1) == 1 {
			return nil, sentinel
		}
		return fakeExec(c)
	}, Options{
		Workers: 1,
		Retry:   RetryPolicy{IsTransient: func(err error) bool { return errors.Is(err, sentinel) }},
		Log:     &log,
	})
	if _, err := eng.Run(testCell("", 64, "gzip")); err != nil {
		t.Fatalf("transient failure not retried: %v", err)
	}
	if calls.Load() != 2 {
		t.Errorf("calls = %d, want 2", calls.Load())
	}
	if !strings.Contains(log.String(), "RETRY") {
		t.Errorf("retry not logged: %q", log.String())
	}
	if s := eng.Snapshot(); s.Retries != 1 || s.Failed != 0 {
		t.Errorf("snapshot %+v", s)
	}
	// Retries surface in both the live progress line and the summary.
	if sum := eng.Snapshot().Summary(); !strings.Contains(sum, "1 retried") {
		t.Errorf("summary %q missing retry count", sum)
	}
	if line := eng.Snapshot().Progress(0).Line(); !strings.Contains(line, "(1 retried)") {
		t.Errorf("progress line %q missing retry count", line)
	}
}

// TestPrimeDropsRepeats: Prime counts only the cells new to the engine —
// a repeat within one call, or a cell primed or run before, is dropped —
// and executes each cell once.
func TestPrimeDropsRepeats(t *testing.T) {
	var calls atomic.Int32
	eng := NewEngine(func(c Cell) (*Record, error) {
		calls.Add(1)
		return fakeExec(c)
	}, Options{Workers: 2})
	a, b := testCell("", 64, "gzip"), testCell("", 64, "art")
	c := testCell("", 128, "gzip")
	if n := eng.Prime([]Cell{a, b, a, b}); n != 2 {
		t.Errorf("Prime of 2 distinct cells counted %d", n)
	}
	if _, err := eng.Run(c); err != nil {
		t.Fatal(err)
	}
	if n := eng.Prime([]Cell{c, b, a}); n != 0 {
		t.Errorf("Prime of cells already submitted counted %d", n)
	}
	eng.Wait()
	if calls.Load() != 3 {
		t.Errorf("executed %d times, want once per distinct cell (3)", calls.Load())
	}
}

// TestEngineFailureRecordedOnce: concurrent Runs of one failing cell
// share one execution, so the engine lists the failure once and logs one
// FAIL line.
func TestEngineFailureRecordedOnce(t *testing.T) {
	boom := errors.New("boom")
	var log bytes.Buffer
	eng := NewEngine(func(c Cell) (*Record, error) {
		time.Sleep(10 * time.Millisecond) // let every caller arrive first
		return nil, boom
	}, Options{Workers: 4, Log: &log})
	cell := testCell("", 64, "gzip")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Run(cell); !errors.Is(err, boom) {
				t.Errorf("Run = %v, want the executor's error", err)
			}
		}()
	}
	wg.Wait()
	fails := eng.Failures()
	if len(fails) != 1 || fails[0].Cell.ID() != cell.ID() || !errors.Is(fails[0].Err, boom) {
		t.Errorf("failures = %+v, want the one gzip cell", fails)
	}
	if n := strings.Count(log.String(), "FAIL "); n != 1 || eng.Snapshot().Failed != 1 {
		t.Errorf("%d FAIL lines and %d failed cells, want 1 each:\n%s", n, eng.Snapshot().Failed, log.String())
	}
}

func TestProgressLine(t *testing.T) {
	eng := NewEngine(fakeExec, Options{Workers: 2})
	eng.Prime([]Cell{testCell("", 64, "gzip"), testCell("", 64, "art")})
	eng.Wait()
	line := eng.Snapshot().Progress(10).Line()
	for _, want := range []string{"campaign 2/10 cells", "instrs/s", "ETA"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q missing %q", line, want)
		}
	}
}

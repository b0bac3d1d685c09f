// Tests of where a finished cell's record is served from (DESIGN.md
// §10.6): the requests that waited on the cell answer from the block its
// verdict left them, every later answer reads the store file, and a
// coordinator whose store does not hold the record keeps it in memory.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"largewindow/internal/campaign"
)

// awkwardExec is fakeExec with text that JSON escapes (<, >, &, U+2028)
// or leaves alone (non-ASCII), so an answer re-encoded or re-escaped on
// the way out would not match the bytes compared below.
func awkwardExec(c campaign.Cell) (*campaign.Record, error) {
	rec, err := fakeExec(c)
	rec.Suite = "SPEC <int> & \u2028 ünïcode"
	return rec, err
}

// wantRecord is the record awkwardExec produces for cell, encoded as the
// coordinator encodes it.
func wantRecord(t *testing.T, cell campaign.Cell) []byte {
	t.Helper()
	rec, _ := awkwardExec(cell)
	rec.CellID = cell.ID()
	enc, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// rawAnswer is the result wire shape with the record's bytes as they
// arrived.
type rawAnswer = resultResponse[json.RawMessage]

// submitWaiting posts a waiting submission and returns its results as
// they arrived on the wire.
func submitWaiting(t *testing.T, url string, cells ...campaign.Cell) []rawAnswer {
	t.Helper()
	res, err := postWaiting(url, cells)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// postWaiting is submitWaiting for a goroutine other than the test's.
func postWaiting(url string, cells []campaign.Cell) ([]rawAnswer, error) {
	req := SubmitRequest{Cells: cells, WaitMS: 10_000}
	stamp(&req.SchemaVersion)
	data, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url+PathSubmit, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("waiting submit: HTTP %d", resp.StatusCode)
	}
	var out submitResponse[json.RawMessage]
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if len(out.Results) != len(cells) {
		return nil, fmt.Errorf("waiting submit answered %d results for %d cells", len(out.Results), len(cells))
	}
	return out.Results, nil
}

// resultRaw fetches one cell's result; nil with the status for a refusal.
func resultRaw(t *testing.T, url, id string) (*rawAnswer, int) {
	t.Helper()
	resp, err := http.Get(url + PathResult + "?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var res rawAnswer
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return &res, resp.StatusCode
}

// checkAnswer fails unless res is cell done with exactly want's bytes.
func checkAnswer(t *testing.T, where string, res *rawAnswer, cell campaign.Cell, want []byte) {
	t.Helper()
	if res == nil || res.Status != StatusDone || res.CellID != cell.ID() || !bytes.Equal(res.Record, want) {
		t.Errorf("%s: %+v\n want record %s", where, res, want)
	}
}

// TestRecordBytesSameFromEverySource: a done cell's record is the same
// bytes on the wire whether it came from the block the waiting
// submission held, from the store file (a later duplicate submission,
// /result) or from the store as a Resume hit on a fresh coordinator. The
// file is the compact encoding indented, and the response encoder
// compacts it again.
func TestRecordBytesSameFromEverySource(t *testing.T) {
	store, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := CoordinatorOptions{Store: store, Resume: true, LeaseTTL: 5 * time.Second}
	coord, srv := startCoordinator(t, opt)
	startWorkers(t, srv.URL, 1, awkwardExec)
	cell := testCell(32, "gzip")
	want := wantRecord(t, cell)

	checkAnswer(t, "the submission that waited", &submitWaiting(t, srv.URL, cell)[0], cell, want)
	coord.mu.Lock()
	if sc := coord.cells[cell.ID()]; sc.rec != nil || sc.inflight != nil {
		t.Errorf("done cell keeps its record in memory (%d bytes) or its scheduling state", len(sc.rec))
	}
	coord.mu.Unlock()
	checkAnswer(t, "a duplicate submission", &submitWaiting(t, srv.URL, cell)[0], cell, want)
	res, code := resultRaw(t, srv.URL, cell.ID())
	if code != http.StatusOK {
		t.Fatalf("/result: HTTP %d", code)
	}
	checkAnswer(t, "/result", res, cell, want)

	_, fresh := startCoordinator(t, opt)
	checkAnswer(t, "a Resume hit", &submitWaiting(t, fresh.URL, cell)[0], cell, want)
	if st := coord.Stats(); st.Completed != 1 {
		t.Errorf("the cell ran %d times", st.Completed)
	}
}

// storeEraser is a log handler that deletes a cell's store file the
// moment the coordinator logs its completion — under the coordinator's
// lock, after the store write, before any waiting request can answer. An
// answer to a waiter that read the store would find nothing.
type storeEraser struct{ store *campaign.Store }

func (h storeEraser) Enabled(context.Context, slog.Level) bool { return true }
func (h storeEraser) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h storeEraser) WithGroup(string) slog.Handler            { return h }
func (h storeEraser) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "completed" {
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "cell_id" {
				os.Remove(h.store.Path(a.Value.String()))
			}
			return true
		})
	}
	return nil
}

// TestWaitersAnswerFromTheFinishingBlock: two submissions waiting on one
// cell both answer with its record, from the block the verdict left them
// and not from the store (the file is gone before they can read it), and
// afterwards the cell holds no record. scripts/check.sh repeats it under
// the race detector.
func TestWaitersAnswerFromTheFinishingBlock(t *testing.T) {
	store, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, srv := startCoordinator(t, CoordinatorOptions{Store: store, LeaseTTL: 5 * time.Second,
		Log: slog.New(storeEraser{store})})
	shared, other := testCell(32, "gzip"), testCell(64, "gzip")
	answers := make([][]rawAnswer, 2)
	var wg sync.WaitGroup
	for i, cells := range [][]campaign.Cell{{shared}, {other, shared}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if answers[i], err = postWaiting(srv.URL, cells); err != nil {
				t.Error(err)
			}
		}()
		// The second submission queues a cell of its own, so a queue two
		// deep says both are registered — and waiting — before any runs.
		waitFor(t, func() bool { return coord.Stats().QueueDepth == i+1 })
	}
	startWorkers(t, srv.URL, 1, awkwardExec)
	wg.Wait()
	if t.Failed() {
		return
	}
	checkAnswer(t, "first waiter", &answers[0][0], shared, wantRecord(t, shared))
	checkAnswer(t, "second waiter", &answers[1][1], shared, wantRecord(t, shared))
	checkAnswer(t, "second waiter's own cell", &answers[1][0], other, wantRecord(t, other))
	coord.mu.Lock()
	defer coord.mu.Unlock()
	for _, cell := range []campaign.Cell{shared, other} {
		if sc := coord.cells[cell.ID()]; sc == nil || sc.rec != nil || sc.inflight != nil {
			t.Errorf("after its waiters answered, cell %s still holds a record or its scheduling state", cell)
		}
	}
}

// TestMissingStoreFileIsUnknownCell: a done cell whose store file is
// gone is answered as a cell never submitted — /result says 404 — and
// Client.Exec, by its restart path, has it computed again; the same holds
// when a duplicate submission is the first to find the file missing.
func TestMissingStoreFileIsUnknownCell(t *testing.T) {
	store, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, srv := startCoordinator(t, CoordinatorOptions{Store: store, LeaseTTL: 5 * time.Second})
	startWorkers(t, srv.URL, 1, fakeExec)
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 2 * time.Second})
	cell := testCell(32, "gzip")
	exec := func(runs uint64) {
		t.Helper()
		rec, err := client.Exec(cell)
		if err != nil || rec == nil || rec.CellID != cell.ID() {
			t.Fatalf("exec: %+v, %v", rec, err)
		}
		if st := coord.Stats(); st.Completed != runs {
			t.Fatalf("cell completed %d times, want %d", st.Completed, runs)
		}
	}
	exec(1)
	if err := os.Remove(store.Path(cell.ID())); err != nil {
		t.Fatal(err)
	}
	if _, code := resultRaw(t, srv.URL, cell.ID()); code != http.StatusNotFound {
		t.Errorf("/result for a done cell whose file is gone: HTTP %d, want 404", code)
	}
	exec(2)
	if err := os.Remove(store.Path(cell.ID())); err != nil {
		t.Fatal(err)
	}
	exec(3) // the duplicate submission finds the file gone
	if _, err := os.Stat(store.Path(cell.ID())); err != nil {
		t.Errorf("recomputed cell not persisted: %v", err)
	}
}

// TestRecordKeptWhereTheStoreLacksIt: with no store, or a store whose
// write failed, the coordinator keeps the record and serves every answer
// from memory, the same bytes as from a store.
func TestRecordKeptWhereTheStoreLacksIt(t *testing.T) {
	cell := testCell(32, "gzip")
	broken, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A file where the cell's shard directory belongs fails the write.
	shard := filepath.Dir(broken.Path(cell.ID()))
	if err := os.WriteFile(shard, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, store := range map[string]*campaign.Store{"no store": nil, "failed write": broken} {
		t.Run(name, func(t *testing.T) {
			coord, srv := startCoordinator(t, CoordinatorOptions{Store: store, LeaseTTL: 5 * time.Second})
			startWorkers(t, srv.URL, 1, awkwardExec)
			want := wantRecord(t, cell)
			checkAnswer(t, "the submission that waited", &submitWaiting(t, srv.URL, cell)[0], cell, want)
			coord.mu.Lock()
			if sc := coord.cells[cell.ID()]; !bytes.Equal(sc.rec, want) {
				t.Errorf("the cell keeps %q, want its record", sc.rec)
			}
			coord.mu.Unlock()
			checkAnswer(t, "a duplicate submission", &submitWaiting(t, srv.URL, cell)[0], cell, want)
			res, code := resultRaw(t, srv.URL, cell.ID())
			if code != http.StatusOK {
				t.Fatalf("/result: HTTP %d", code)
			}
			checkAnswer(t, "/result", res, cell, want)
		})
	}
}

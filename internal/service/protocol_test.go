// Tests of the two-round-trip protocol (DESIGN.md §10.6): what rides on
// which request, what a redelivery does, what the fall-back paths still
// do, and the v3/v4 version rule.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"largewindow/internal/campaign"
)

// pathCounts counts the requests a coordinator serves, by path.
type pathCounts struct {
	mu sync.Mutex
	n  map[string]int
}

func (p *pathCounts) get(path string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n[path]
}

// startCountedCoordinator is startCoordinator with every request counted.
func startCountedCoordinator(t *testing.T, opt CoordinatorOptions) (*Coordinator, *httptest.Server, *pathCounts) {
	t.Helper()
	coord := NewCoordinator(opt)
	counts := &pathCounts{n: map[string]int{}}
	inner := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		counts.mu.Lock()
		counts.n[r.URL.Path]++
		counts.mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		coord.Close()
	})
	return coord, srv, counts
}

// postRaw posts one body and decodes a 200 answer into out; it returns
// the status and, for a refusal, the message.
func postRaw(t *testing.T, url string, body, out any) (int, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		return resp.StatusCode, msg.String()
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, ""
}

// TestExecIsTwoRoundTrips pins the steady-state cost of a cell: one
// submit from the client, one lease request from the worker per cell
// (each carrying the outcome of the cell before), and neither a result
// nor a completion request.
func TestExecIsTwoRoundTrips(t *testing.T) {
	coord, srv, counts := startCountedCoordinator(t, CoordinatorOptions{LeaseTTL: time.Second})
	startWorkers(t, srv.URL, 1, fakeExec)
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 2 * time.Second})
	const n = 8
	for i := 0; i < n; i++ {
		rec, err := client.Exec(testCell(16+i, "gzip"))
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil || rec.CellID != testCell(16+i, "gzip").ID() {
			t.Fatalf("cell %d: record %+v", i, rec)
		}
	}
	if got := coord.Stats().Completed; got != n {
		t.Fatalf("completed %d of %d", got, n)
	}
	if got := counts.get(PathSubmit); got != n {
		t.Errorf("%d submit requests for %d cells", got, n)
	}
	if got := counts.get(PathResult) + counts.get(PathComplete); got != 0 {
		t.Errorf("%d result + completion requests in steady state, want none", got)
	}
	// The worker's first request finds the queue dry or not; after that it
	// is one request per cell, plus the one now waiting.
	if got := counts.get(PathLease); got < n || got > n+2 {
		t.Errorf("%d lease requests for %d cells, want %d..%d", got, n, n, n+2)
	}
}

// TestRedeliveredDoneChangesNothing: a worker whose lease request was
// served but whose answer was lost sends the same outcome again. The
// second delivery must be answered 410 and leave every counter, the
// cell's result and the store as the first one left them.
func TestRedeliveredDoneChangesNothing(t *testing.T) {
	store, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, srv := startCoordinator(t, CoordinatorOptions{LeaseTTL: 5 * time.Second, Store: store})
	client := NewClient(ClientOptions{Server: srv.URL})
	cell := testCell(32, "gzip")
	if _, err := client.Submit([]campaign.Cell{cell}); err != nil {
		t.Fatal(err)
	}
	lr := leaseRaw(t, srv.URL, "w")
	if lr.Lease == nil {
		t.Fatal("no lease")
	}
	next := LeaseRequest{WorkerID: "w", Done: &CompleteRequest{
		WorkerID: "w", LeaseID: lr.Lease.LeaseID, Record: fakeRecord(lr.Lease),
	}}
	stamp(&next.SchemaVersion)

	var first LeaseResponse
	if code, msg := postRaw(t, srv.URL+PathLease, &next, &first); code != http.StatusOK {
		t.Fatalf("lease carrying an outcome: HTTP %d %s", code, msg)
	}
	if first.DoneStatus != http.StatusOK {
		t.Fatalf("first delivery answered %d, want 200", first.DoneStatus)
	}
	before := coord.Stats()
	if before.Completed != 1 || before.ActiveLeases != 0 {
		t.Fatalf("after the first delivery: %+v", before)
	}
	wantFile, err := os.ReadFile(store.Path(cell.ID()))
	if err != nil {
		t.Fatal(err)
	}

	var second LeaseResponse
	if code, msg := postRaw(t, srv.URL+PathLease, &next, &second); code != http.StatusOK {
		t.Fatalf("redelivery: HTTP %d %s", code, msg)
	}
	if second.DoneStatus != http.StatusGone {
		t.Errorf("redelivery answered %d, want 410", second.DoneStatus)
	}
	if after := coord.Stats(); after != before {
		t.Errorf("redelivery moved the counters:\n before %+v\n after  %+v", before, after)
	}
	res, err := client.Result(cell.ID(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusDone || res.Attempts != 1 || res.Record == nil || res.Record.CellID != cell.ID() {
		t.Errorf("result after redelivery: %+v", res)
	}
	if got, err := os.ReadFile(store.Path(cell.ID())); err != nil || !bytes.Equal(got, wantFile) {
		t.Errorf("store file changed on redelivery (%v)", err)
	}
}

// TestExecFallsBackToResult: a cell slower than the client's PollWait
// outlives the waiting submit; Exec must go on through the result poll
// and still return the record.
func TestExecFallsBackToResult(t *testing.T) {
	_, srv, counts := startCountedCoordinator(t, CoordinatorOptions{LeaseTTL: 5 * time.Second})
	release := make(chan struct{})
	startWorkers(t, srv.URL, 1, func(c campaign.Cell) (*campaign.Record, error) {
		<-release
		return fakeExec(c)
	})
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 20 * time.Millisecond})
	cell := testCell(32, "art")
	got := make(chan error, 1)
	go func() {
		rec, err := client.Exec(cell)
		if err == nil && (rec == nil || rec.CellID != cell.ID()) {
			err = fmt.Errorf("record %+v", rec)
		}
		got <- err
	}()
	// Hold the cell until Exec has demonstrably moved on to polling.
	waitFor(t, func() bool { return counts.get(PathResult) >= 2 })
	close(release)
	if err := <-got; err != nil {
		t.Fatalf("exec of a slow cell: %v", err)
	}
	if n := counts.get(PathSubmit); n != 1 {
		t.Errorf("%d submit requests, want 1 (the fall-back polls, it does not resubmit)", n)
	}
}

// TestWorkerShutdownFlush: a worker told to stop while it holds an
// outcome it could not deliver — the lease request carrying it was
// refused — must deliver it in a completion request of its own before
// Run returns when it was cancelled, and must deliver nothing, leaving
// the lease to expire, when it was killed.
func TestWorkerShutdownFlush(t *testing.T) {
	for _, kill := range []bool{false, true} {
		name := "cancel"
		if kill {
			name = "kill"
		}
		t.Run(name, func(t *testing.T) {
			coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 30 * time.Second})
			defer coord.Close()
			var refuseLeases atomic.Bool
			var refused, completions atomic.Int32
			inner := coord.Handler()
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.URL.Path == PathLease && refuseLeases.Load():
					refused.Add(1)
					http.Error(w, "not now", http.StatusServiceUnavailable)
					return
				case r.URL.Path == PathComplete:
					completions.Add(1)
				}
				inner.ServeHTTP(w, r)
			}))
			defer srv.Close()
			client := NewClient(ClientOptions{Server: srv.URL})
			if _, err := client.Submit([]campaign.Cell{testCell(32, "mcf")}); err != nil {
				t.Fatal(err)
			}
			w := NewWorker(WorkerOptions{
				Server:   srv.URL,
				ID:       "leaving",
				PollWait: 100 * time.Millisecond,
				Exec: func(c campaign.Cell) (*campaign.Record, error) {
					refuseLeases.Store(true) // the request that would carry this outcome fails
					return fakeExec(c)
				},
			})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ran := make(chan struct{})
			go func() { defer close(ran); w.Run(ctx) }()
			waitFor(t, func() bool { return refused.Load() > 0 })
			if st := coord.Stats(); st.Completed != 0 || st.ActiveLeases != 1 {
				t.Fatalf("before the stop: %+v", st)
			}
			if kill {
				w.Kill()
			} else {
				cancel()
			}
			select {
			case <-ran:
			case <-time.After(10 * time.Second):
				t.Fatal("Run did not return")
			}
			st := coord.Stats()
			if kill {
				if st.Completed != 0 || st.ActiveLeases != 1 || completions.Load() != 0 {
					t.Errorf("killed worker delivered something: %+v, %d completion requests", st, completions.Load())
				}
				return
			}
			if st.Completed != 1 || st.ActiveLeases != 0 || completions.Load() != 1 {
				t.Errorf("Run returned with the outcome undelivered: %+v, %d completion requests", st, completions.Load())
			}
			if w.CellsDone() != 1 {
				t.Errorf("worker counts %d delivered cells, want 1", w.CellsDone())
			}
		})
	}
}

// TestV3PeersCompleteASweep plays a protocol-v3 client and worker — the
// four separate requests, bodies stamped 3, none of the v4 fields —
// against the current coordinator.
func TestV3PeersCompleteASweep(t *testing.T) {
	const v3 = 3
	coord, srv := startCoordinator(t, CoordinatorOptions{LeaseTTL: 5 * time.Second})
	cells := []campaign.Cell{testCell(16, "gzip"), testCell(32, "gzip"), testCell(64, "gzip")}

	var sub SubmitResponse
	if code, msg := postRaw(t, srv.URL+PathSubmit, &SubmitRequest{SchemaVersion: v3, Cells: cells}, &sub); code != http.StatusOK {
		t.Fatalf("v3 submit: HTTP %d %s", code, msg)
	}
	if len(sub.IDs) != len(cells) || sub.Enqueued != len(cells) || sub.Results != nil {
		t.Fatalf("v3 submit answered %+v", sub)
	}
	for range cells {
		var lr LeaseResponse
		if code, msg := postRaw(t, srv.URL+PathLease, &LeaseRequest{SchemaVersion: v3, WorkerID: "old"}, &lr); code != http.StatusOK {
			t.Fatalf("v3 lease: HTTP %d %s", code, msg)
		}
		if lr.Lease == nil || lr.DoneStatus != 0 {
			t.Fatalf("v3 lease answered %+v", lr)
		}
		done := &CompleteRequest{SchemaVersion: v3, WorkerID: "old", LeaseID: lr.Lease.LeaseID, Record: fakeRecord(lr.Lease)}
		if code, msg := postRaw(t, srv.URL+PathComplete, done, nil); code != http.StatusOK {
			t.Fatalf("v3 complete: HTTP %d %s", code, msg)
		}
	}
	for _, id := range sub.IDs {
		resp, err := http.Get(srv.URL + PathResult + "?id=" + id + "&wait_ms=1000")
		if err != nil {
			t.Fatal(err)
		}
		var res ResultResponse
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil || res.Status != StatusDone || res.Record == nil || res.Record.CellID != id {
			t.Fatalf("v3 result for %s: %+v (%v)", id, res, err)
		}
	}
	if st := coord.Stats(); st.Completed != uint64(len(cells)) || st.Failed != 0 {
		t.Errorf("stats after the v3 sweep: %+v", st)
	}
}

// TestV4RefusedByV3Coordinator: against a coordinator that understands
// protocol v3 and no more, the current client and worker must be refused
// with a 400 naming the versions — not served with the outcome riding a
// lease request silently dropped.
func TestV4RefusedByV3Coordinator(t *testing.T) {
	coord, srv := startCoordinator(t, CoordinatorOptions{LeaseTTL: time.Second})
	coord.version = 3

	client := NewClient(ClientOptions{Server: srv.URL, Retry: campaign.RetryPolicy{MaxAttempts: 1}})
	refused := make(chan error, 1)
	go func() {
		_, err := client.Exec(testCell(32, "gzip"))
		refused <- err
	}()
	select {
	case err := <-refused:
		if err == nil || IsTransient(err) || !strings.Contains(err.Error(), "HTTP 400") || !strings.Contains(err.Error(), "version 4") {
			t.Errorf("v4 Exec against a v3 coordinator: %v, want a permanent HTTP 400 naming version 4", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("v4 Exec against a v3 coordinator was accepted and is waiting for a worker")
	}

	w := NewWorker(WorkerOptions{Server: srv.URL, ID: "new", Exec: fakeExec})
	_, err := w.lease(context.Background(), &outcome{
		ls:  &Lease{LeaseID: "feedfacefeedface"},
		req: &CompleteRequest{SchemaVersion: 4, WorkerID: "new", LeaseID: "feedfacefeedface", Error: "x"},
	})
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") || !strings.Contains(err.Error(), "version 4") {
		t.Errorf("v4 lease against a v3 coordinator: %v, want HTTP 400 naming version 4", err)
	}
	if st := coord.Stats(); st.Submitted != 0 {
		t.Errorf("refused requests left their mark: %+v", st)
	}
}

// TestFinishedCellKeepsOnlyItsVerdict: the scheduling state of a cell —
// its Cell and configuration above all — must be gone once the cell is
// done or failed, the result must still be served, and a failed cell
// must re-arm from the cell a resubmission brings.
func TestFinishedCellKeepsOnlyItsVerdict(t *testing.T) {
	coord, srv := startCoordinator(t, CoordinatorOptions{LeaseTTL: time.Second})
	fail := true
	var mu sync.Mutex
	startWorkers(t, srv.URL, 1, func(c campaign.Cell) (*campaign.Record, error) {
		mu.Lock()
		defer mu.Unlock()
		if c.Bench == "art" && fail {
			return nil, os.ErrInvalid
		}
		return fakeExec(c)
	})
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 2 * time.Second})
	good, bad := testCell(32, "gzip"), testCell(32, "art")
	if _, err := client.Exec(good); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exec(bad); err == nil {
		t.Fatal("failing cell reported success")
	}
	coord.mu.Lock()
	for _, cell := range []campaign.Cell{good, bad} {
		if sc := coord.cells[cell.ID()]; sc == nil || sc.inflight != nil {
			t.Errorf("finished cell %s still holds its scheduling state", cell)
		}
	}
	coord.mu.Unlock()
	if rec, err := client.Exec(good); err != nil || rec == nil || rec.Stats.Committed != good.MaxInstr {
		t.Errorf("finished cell no longer served: %+v, %v", rec, err)
	}
	mu.Lock()
	fail = false
	mu.Unlock()
	rec, err := client.Exec(bad)
	if err != nil || rec == nil || rec.CellID != bad.ID() {
		t.Fatalf("re-armed failure: %+v, %v", rec, err)
	}
	if res, _ := client.Result(bad.ID(), 0); res == nil || res.Attempts != 1 {
		t.Errorf("re-armed cell reports %+v, want a fresh lifecycle (1 attempt)", res)
	}
}

// TestCellQueueDifferential drives the ring against the slice queue it
// replaced — push back, requeue at the front, take the first cell not
// backing off — and checks after every step that the ring holds no
// reference outside its live window.
func TestCellQueueDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	now := time.Now()
	var q cellQueue
	var ref []*svcCell
	newCell := func() *svcCell {
		sc := &svcCell{inflight: &inflight{}}
		if rng.Intn(4) == 0 {
			sc.notBefore = now.Add(time.Hour) // backing off
		}
		return sc
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			sc := newCell()
			q.pushBack(sc)
			ref = append(ref, sc)
		case op < 5:
			sc := newCell()
			q.pushFront(sc)
			ref = append([]*svcCell{sc}, ref...)
		default:
			var want *svcCell
			for i, sc := range ref {
				if !sc.notBefore.After(now) {
					want = sc
					ref = append(ref[:i:i], ref[i+1:]...)
					break
				}
			}
			if got := q.popReady(now); got != want {
				t.Fatalf("step %d: popReady returned %p, reference %p", step, got, want)
			}
		}
		if step%97 == 0 { // a backoff window elapses
			for _, sc := range ref {
				sc.notBefore = time.Time{}
			}
		}
		if q.len() != len(ref) {
			t.Fatalf("step %d: ring holds %d cells, reference %d", step, q.len(), len(ref))
		}
		for i, sc := range ref {
			if *q.slot(i) != sc {
				t.Fatalf("step %d: position %d differs", step, i)
			}
		}
		live := 0
		for _, sc := range q.buf {
			if sc != nil {
				live++
			}
		}
		if live != q.len() {
			t.Fatalf("step %d: ring keeps %d references for %d queued cells", step, live, q.len())
		}
	}
}

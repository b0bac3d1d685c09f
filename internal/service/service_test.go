package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/workload"
)

func testCell(iq int, bench string) campaign.Cell {
	return campaign.Cell{
		Config:    core.ScaledConfig(iq, 128),
		Bench:     bench,
		Scale:     workload.ScaleTest,
		MaxInstr:  5000,
		MaxCycles: 1 << 20,
	}
}

func fakeExec(c campaign.Cell) (*campaign.Record, error) {
	rec := &campaign.Record{
		Config:    c.Config.Name,
		Bench:     c.Bench,
		Suite:     "SPEC-INT",
		Scale:     c.Scale.String(),
		MaxInstr:  c.MaxInstr,
		MaxCycles: c.MaxCycles,
		IPC:       1.5,
	}
	rec.Stats.Committed = c.MaxInstr
	rec.Stats.Cycles = int64(c.MaxInstr) * 2
	return rec, nil
}

// startCoordinator spins a coordinator + HTTP server, torn down with the
// test.
func startCoordinator(t *testing.T, opt CoordinatorOptions) (*Coordinator, *httptest.Server) {
	t.Helper()
	coord := NewCoordinator(opt)
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		srv.Close()
		coord.Close()
	})
	return coord, srv
}

// startWorkers launches n fake-exec workers against a server, cancelled
// and awaited at test end.
func startWorkers(t *testing.T, server string, n int, exec campaign.ExecFunc) []*Worker {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, n)
	var workers []*Worker
	for i := 0; i < n; i++ {
		w := NewWorker(WorkerOptions{
			Server:   server,
			ID:       fmt.Sprintf("w%d", i),
			Exec:     exec,
			PollWait: 100 * time.Millisecond,
		})
		workers = append(workers, w)
		go func() {
			defer func() { done <- struct{}{} }()
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		for i := 0; i < n; i++ {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Error("worker did not exit")
				return
			}
		}
	})
	return workers
}

// TestServiceEndToEnd: a client sweep over coordinator + workers must
// complete every cell with the records fakeExec produces, deduplicating
// duplicate submissions.
func TestServiceEndToEnd(t *testing.T) {
	coord, srv := startCoordinator(t, CoordinatorOptions{LeaseTTL: time.Second})
	startWorkers(t, srv.URL, 3, fakeExec)
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 200 * time.Millisecond})

	if err := client.Healthy(); err != nil {
		t.Fatalf("health probe: %v", err)
	}
	cells := []campaign.Cell{
		testCell(32, "gzip"), testCell(32, "art"),
		testCell(64, "gzip"), testCell(64, "art"),
	}
	type res struct {
		rec *campaign.Record
		err error
	}
	out := make(chan res, len(cells)*2)
	for i := 0; i < 2; i++ { // duplicate submissions dedup server-side
		for _, c := range cells {
			c := c
			go func() {
				rec, err := client.Exec(c)
				out <- res{rec, err}
			}()
		}
	}
	for i := 0; i < len(cells)*2; i++ {
		r := <-out
		if r.err != nil {
			t.Fatalf("remote cell failed: %v", r.err)
		}
		if r.rec == nil || r.rec.Stats.Committed != 5000 {
			t.Fatalf("remote record malformed: %+v", r.rec)
		}
	}
	st := coord.Stats()
	if st.Submitted != 4 || st.Completed != 4 || st.Failed != 0 {
		t.Errorf("stats %+v, want 4 submitted, 4 completed (dedup)", st)
	}
}

// TestLeaseExpiryRequeues: a worker that takes a lease and vanishes must
// lose it to the reaper; a healthy worker then completes the cell.
func TestLeaseExpiryRequeues(t *testing.T) {
	coord, srv := startCoordinator(t, CoordinatorOptions{LeaseTTL: 150 * time.Millisecond})
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 100 * time.Millisecond})

	cell := testCell(32, "gzip")
	if _, err := client.Submit([]campaign.Cell{cell}); err != nil {
		t.Fatal(err)
	}
	// A "worker" that leases and dies on the spot: raw HTTP, no heartbeat.
	lr := leaseRaw(t, srv.URL, "zombie")
	if lr.Lease == nil {
		t.Fatal("no lease for the zombie worker")
	}

	// A healthy worker joins; it must receive the requeued cell.
	startWorkers(t, srv.URL, 1, fakeExec)
	res, err := client.Result(cell.ID(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusDone {
		t.Fatalf("cell after zombie worker: %s (%s)", res.Status, res.Error)
	}
	if res.Attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (requeue after lease expiry)", res.Attempts)
	}
	st := coord.Stats()
	if st.LeaseExpiries == 0 || st.Requeues == 0 {
		t.Errorf("stats %+v, want lease expiry + requeue recorded", st)
	}

	// The zombie waking up now must be refused: its lease is dead.
	code := completeRaw(t, srv.URL, lr.Lease, fakeRecord(lr.Lease))
	if code != http.StatusGone {
		t.Errorf("stale completion answered HTTP %d, want 410", code)
	}
}

// TestTransientFailureRetriesAndPermanentFails: the coordinator's retry
// policy must re-dispatch classified-transient failures up to the budget
// and fail permanent ones immediately.
func TestTransientFailureRetriesAndPermanentFails(t *testing.T) {
	coord, srv := startCoordinator(t, CoordinatorOptions{
		LeaseTTL: time.Second,
		Retry:    campaign.RetryPolicy{MaxAttempts: 3},
	})
	var flaky atomic.Int32
	exec := func(c campaign.Cell) (*campaign.Record, error) {
		switch c.Bench {
		case "flaky": // succeeds on attempt 3
			if flaky.Add(1) <= 2 {
				return nil, errors.New("transient blip")
			}
		case "doomed":
			return nil, errors.New("hard simulator bug")
		}
		return fakeExec(c)
	}
	classify := func(err error) bool { return strings.Contains(err.Error(), "transient") }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewWorker(WorkerOptions{Server: srv.URL, Exec: exec, Classify: classify, PollWait: 100 * time.Millisecond})
	go w.Run(ctx)

	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 200 * time.Millisecond})
	rec, err := client.Exec(testCell(32, "flaky"))
	if err != nil || rec == nil {
		t.Fatalf("flaky cell should recover on attempt 3: %v", err)
	}
	if got := flaky.Load(); got != 3 {
		t.Errorf("flaky cell executed %d times, want 3", got)
	}
	if _, err := client.Exec(testCell(32, "doomed")); err == nil {
		t.Fatal("permanent failure reported success")
	} else if IsTransient(err) {
		t.Errorf("coordinator-declared permanent failure classified transient: %v", err)
	}
	st := coord.Stats()
	if st.Retries != 2 || st.Failed != 1 {
		t.Errorf("stats %+v, want 2 retries and 1 permanent failure", st)
	}
}

// TestBackpressure: a full queue must answer 429 + Retry-After and
// count the rejection; the same batch is accepted once there is room.
func TestBackpressure(t *testing.T) {
	coord, srv := startCoordinator(t, CoordinatorOptions{QueueCap: 2, LeaseTTL: time.Second})
	body := func(cells []campaign.Cell) *bytes.Reader {
		req := SubmitRequest{Cells: cells}
		stamp(&req.SchemaVersion)
		data, _ := json.Marshal(req)
		return bytes.NewReader(data)
	}
	big := []campaign.Cell{testCell(32, "gzip"), testCell(32, "art"), testCell(32, "mcf")}
	resp, err := http.Post(srv.URL+PathSubmit, "application/json", body(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("3 cells into a cap-2 queue: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if coord.Stats().Rejected != 1 {
		t.Errorf("rejection not counted: %+v", coord.Stats())
	}
	resp, err = http.Post(srv.URL+PathSubmit, "application/json", body(big[:2]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("2 cells into a cap-2 queue: HTTP %d, want 200", resp.StatusCode)
	}
	// Workers drain the queue; the previously bounced batch now fits and
	// its already-done cells dedup.
	startWorkers(t, srv.URL, 2, fakeExec)
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 200 * time.Millisecond})
	for _, c := range big[:2] {
		if _, err := client.Exec(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Submit(big); err != nil {
		t.Fatalf("resubmission after drain still bounced: %v", err)
	}
}

// TestDrainGraceful: draining must refuse new submissions, tell workers
// to exit, finish in-flight leases, and leave undispatched cells pending.
func TestDrainGraceful(t *testing.T) {
	coord, srv := startCoordinator(t, CoordinatorOptions{LeaseTTL: time.Second})
	client := NewClient(ClientOptions{
		Server: srv.URL,
		Retry:  campaign.RetryPolicy{MaxAttempts: 1}, // no transport retries: observe the 503 directly
	})

	release := make(chan struct{})
	slowExec := func(c campaign.Cell) (*campaign.Record, error) {
		<-release
		return fakeExec(c)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewWorker(WorkerOptions{Server: srv.URL, Exec: slowExec, PollWait: 100 * time.Millisecond})
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); w.Run(ctx) }()

	cell := testCell(32, "gzip")
	if _, err := client.Submit([]campaign.Cell{cell}); err != nil {
		t.Fatal(err)
	}
	// Wait until the worker holds the lease.
	waitFor(t, func() bool { return coord.Stats().ActiveLeases == 1 })

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- coord.Drain(ctx)
	}()
	waitFor(t, func() bool { return coord.Stats().Draining })

	// New submissions are refused while draining.
	if _, err := client.Submit([]campaign.Cell{testCell(64, "art")}); err == nil {
		t.Error("draining coordinator accepted a submission")
	} else if !IsTransient(err) {
		t.Errorf("drain refusal should be transient (the fleet may come back): %v", err)
	}

	// Let the in-flight cell finish; drain must then complete, and the
	// record must have been accepted.
	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	res, err := client.Result(cell.ID(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusDone {
		t.Errorf("in-flight cell after drain: %s, want done", res.Status)
	}
	select {
	case <-workerDone:
	case <-time.After(5 * time.Second):
		t.Error("worker did not exit on drain signal")
	}
}

// TestDrainWaitsForTheVerdict: an outcome claimed but not yet settled —
// its record on its way to the store, outside the lock — holds a drain
// as a lease does, so the process cannot exit before the record is
// stored and the cell done.
func TestDrainWaitsForTheVerdict(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	now := time.Now()
	cell := testCell(32, "gzip")
	c.mu.Lock()
	c.submit(now, []campaign.Cell{cell}, "", []arrival{{id: cell.ID()}})
	c.lease(now, "w", "lease-1")
	sc, claimed := c.claim(now, &CompleteRequest{WorkerID: "w", LeaseID: "lease-1", Record: &campaign.Record{}})
	c.mu.Unlock()
	if sc == nil {
		t.Fatal("lease not claimed")
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Drain(expired); err == nil {
		t.Fatal("drain returned while a claimed outcome awaited its verdict")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.settle(now, sc, claimed)
	if sc.status != StatusDone || c.idle != nil {
		t.Errorf("after the verdict: status %s, drain still held: %v", sc.status, c.idle != nil)
	}
}

// TestCorruptCompletionRejected: a record naming the wrong cell must not
// reach the store or waiters; the cell is re-dispatched and a healthy
// worker's record wins.
func TestCorruptCompletionRejected(t *testing.T) {
	coord, srv := startCoordinator(t, CoordinatorOptions{
		LeaseTTL: time.Second,
		Retry:    campaign.RetryPolicy{MaxAttempts: 3},
	})
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 200 * time.Millisecond})
	cell := testCell(32, "gzip")
	if _, err := client.Submit([]campaign.Cell{cell}); err != nil {
		t.Fatal(err)
	}
	// A corrupt worker leases the cell and returns a record for a
	// different cell ID.
	lr := leaseRaw(t, srv.URL, "corrupt")
	if lr.Lease == nil {
		t.Fatal("no lease")
	}
	bad := fakeRecord(lr.Lease)
	bad.CellID = "0123456789abcdef0123456789abcdef"
	if code := completeRaw(t, srv.URL, lr.Lease, bad); code != http.StatusOK {
		t.Fatalf("corrupt completion HTTP %d", code)
	}
	res, err := client.Result(cell.ID(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == StatusDone {
		t.Fatal("corrupt record accepted as the cell's outcome")
	}
	// Healthy workers take over and the cell completes with a sane record.
	startWorkers(t, srv.URL, 1, fakeExec)
	res, err = client.Result(cell.ID(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusDone || res.Record.CellID != cell.ID() {
		t.Fatalf("cell after corrupt worker: %+v", res)
	}
	if coord.Stats().Retries == 0 {
		t.Error("corrupt completion not counted as a retried failure")
	}
}

// TestSubmitVersionRejected: a future-protocol request must bounce with
// a descriptive 400, not decode garbage.
func TestSubmitVersionRejected(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{})
	req := SubmitRequest{SchemaVersion: 99, Cells: []campaign.Cell{testCell(32, "gzip")}}
	data, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+PathSubmit, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("future schema version: HTTP %d, want 400", resp.StatusCode)
	}
}

// --- raw-protocol helpers (fake workers doing exactly what we say) ---

func leaseRaw(t *testing.T, server, worker string) *LeaseResponse {
	t.Helper()
	req := LeaseRequest{WorkerID: worker, WaitMS: 2000}
	stamp(&req.SchemaVersion)
	data, _ := json.Marshal(req)
	resp, err := http.Post(server+PathLease, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lr LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	return &lr
}

func completeRaw(t *testing.T, server string, ls *Lease, rec *campaign.Record) int {
	t.Helper()
	req := CompleteRequest{WorkerID: "raw", LeaseID: ls.LeaseID, Record: rec}
	stamp(&req.SchemaVersion)
	data, _ := json.Marshal(req)
	resp, err := http.Post(server+PathComplete, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func fakeRecord(ls *Lease) *campaign.Record {
	rec, _ := fakeExec(ls.Cell)
	rec.CellID = ls.CellID
	return rec
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/obs"
	"largewindow/internal/schema"
)

// TestSubmitPrunedAccounting: a model-pruned submission must land its
// pruned/audited counts on the coordinator's stats and progress
// snapshots and publish a prune lifecycle event, while the simulated
// cells flow through the ordinary dispatch path.
func TestSubmitPrunedAccounting(t *testing.T) {
	bus := obs.NewBus()
	coord, srv := startCoordinator(t, CoordinatorOptions{
		LeaseTTL: time.Second,
		Events:   bus,
	})
	sub := bus.Subscribe(64)
	defer bus.Unsubscribe(sub)
	startWorkers(t, srv.URL, 1, fakeExec)
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 200 * time.Millisecond})

	cells := []campaign.Cell{testCell(16, "gzip"), testCell(32, "gzip")}
	resp, err := client.SubmitPruned(cells, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 2 {
		t.Fatalf("submitted %d cells, got %d ids", len(cells), len(resp.IDs))
	}
	for _, id := range resp.IDs {
		if _, err := client.Result(id, 10*time.Second); err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
	}

	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ModelPruned != 11 || stats.ModelAudited != 2 {
		t.Errorf("stats model counters = %d/%d, want 11/2", stats.ModelPruned, stats.ModelAudited)
	}
	if p := coord.progress(); p.ModelPruned != 11 || p.ModelAudited != 2 {
		t.Errorf("progress model counters = %d/%d, want 11/2", p.ModelPruned, p.ModelAudited)
	}

	// A second pruned submission accumulates.
	if _, err := client.SubmitPruned(nil, 4, 1); err != nil {
		t.Fatal(err)
	}
	stats, err = client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ModelPruned != 15 || stats.ModelAudited != 3 {
		t.Errorf("accumulated model counters = %d/%d, want 15/3", stats.ModelPruned, stats.ModelAudited)
	}

	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-sub.Events():
			if ev.Type != obs.EventPrune {
				continue
			}
			if !strings.Contains(ev.Note, "model pruned 11 cells (2 audited)") {
				t.Errorf("prune event note = %q", ev.Note)
			}
			return
		case <-deadline:
			t.Fatal("no prune event published")
		}
	}
}

// TestHeartbeatIntervalProgress: interval counts reported on heartbeats
// must show up in the coordinator's progress snapshot and grant
// fractional ETA credit — with zero cells complete, only the in-flight
// intervals can make an ETA exist at all.
func TestHeartbeatIntervalProgress(t *testing.T) {
	coord, srv := startCoordinator(t, CoordinatorOptions{LeaseTTL: 10 * time.Second})
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 200 * time.Millisecond})

	if _, err := client.Submit([]campaign.Cell{testCell(16, "gzip")}); err != nil {
		t.Fatal(err)
	}

	post := func(path string, req, out any) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}

	var lr LeaseResponse
	post(PathLease, LeaseRequest{SchemaVersion: schema.ServiceVersion, WorkerID: "hb-test"}, &lr)
	if lr.Lease == nil {
		t.Fatal("no lease for the submitted cell")
	}

	if eta := coord.progress().ETASec; eta != -1 {
		t.Fatalf("ETA before any progress = %g, want -1", eta)
	}

	post(PathHeartbeat, HeartbeatRequest{
		SchemaVersion: schema.ServiceVersion, WorkerID: "hb-test", LeaseID: lr.Lease.LeaseID,
		IntervalsDone: 5, IntervalsPlanned: 10,
	}, nil)

	p := coord.progress()
	if p.IntervalsDone != 5 || p.IntervalsPlanned != 10 {
		t.Errorf("progress intervals = %d/%d, want 5/10", p.IntervalsDone, p.IntervalsPlanned)
	}
	if p.ETASec <= 0 {
		t.Errorf("fractional interval credit produced no ETA (got %g)", p.ETASec)
	}
}

// TestResumedProgressETACountsExecutedCells: a resumed campaign of 100
// cells, 90 of them store hits and 1 executed, has 9 left at the wall
// time of the one executed cell each. Counting the hits as executed
// cells, as the fleet's estimate once did, priced the rest at 1/91 of
// the elapsed time apiece (0.2 s after 2 s, against 18 s).
func TestResumedProgressETACountsExecutedCells(t *testing.T) {
	store, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var cells []campaign.Cell
	for i := 0; i < 100; i++ {
		cell := testCell(16+i, "gzip")
		cells = append(cells, cell)
		if i < 90 {
			rec, _ := fakeExec(cell)
			rec.CellID = cell.ID()
			if err := store.Put(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	coord, srv := startCoordinator(t, CoordinatorOptions{Store: store, Resume: true, LeaseTTL: 10 * time.Second})
	var ran atomic.Int32
	release := make(chan struct{})
	startWorkers(t, srv.URL, 1, func(c campaign.Cell) (*campaign.Record, error) {
		if ran.Add(1) > 1 {
			<-release // hold every cell after the first in flight
		}
		return fakeExec(c)
	})
	t.Cleanup(func() { close(release) })
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 100 * time.Millisecond})
	if _, err := client.Submit(cells); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return coord.Stats().Completed == 91 })

	p := coord.progress()
	if p.Done != 91 || p.CacheHits != 90 || p.Failed != 0 || p.Submitted != 100 {
		t.Fatalf("progress %d/%d done, %d hits, %d failed; want 91/100, 90 hits, 0 failed", p.Done, p.Submitted, p.CacheHits, p.Failed)
	}
	if want := p.ElapsedSec * 9; math.Abs(p.ETASec-want) > 1e-9*want {
		t.Errorf("ETA %g s after %g s, want %g (9 cells left at the one executed cell's %g s)",
			p.ETASec, p.ElapsedSec, want, p.ElapsedSec)
	}
}

// TestLeaseCreditIgnoresMapOrder: the ETA's fractional credit is a sum
// over the lease map. Summed as floats in iteration order it differed in
// its last bits from one snapshot to the next; fifty snapshots of the
// same leases must agree to the bit, and a finished-but-leased cell
// counts one, never more. obs's TestInFlightIgnoresOrder holds the sum
// itself to the same vector.
func TestLeaseCreditIgnoresMapOrder(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	defer c.Close()
	for i, planned := range []uint64{3, 7, 9, 11, 13, 17, 19, 23, 29, 31, 37, 0} {
		c.leases[fmt.Sprint("lease-", i)] = &svcCell{inflight: &inflight{ivDone: uint64(i) + 1, ivPlanned: planned}}
	}
	c.leases["overshoot"] = &svcCell{inflight: &inflight{ivDone: 12, ivPlanned: 10}}
	iv := c.leaseCredit()
	want := iv.Credit()
	if iv.Done != 66+12 || iv.Planned != 199+10 {
		t.Fatalf("intervals = %d/%d, want 78/209", iv.Done, iv.Planned)
	}
	var exact float64
	for i, p := range []float64{3, 7, 9, 11, 13, 17, 19, 23, 29, 31, 37} {
		exact += float64(i+1) / p
	}
	if exact++; math.Abs(want-exact) > 1e-6 {
		t.Fatalf("credit = %v, want %v", want, exact)
	}
	for i := 0; i < 50; i++ {
		if got := c.leaseCredit().Credit(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("snapshot %d: credit %v, first snapshot %v", i, got, want)
		}
	}
}

// TestWorkerExecProgressHeartbeats drives the worker end of the interval
// pipeline: an ExecProgress cell that reports interval progress and
// outlives a heartbeat must land its counts on the coordinator while
// still leased.
func TestWorkerExecProgressHeartbeats(t *testing.T) {
	coord, srv := startCoordinator(t, CoordinatorOptions{LeaseTTL: 300 * time.Millisecond})
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 100 * time.Millisecond})

	release := make(chan struct{})
	w := NewWorker(WorkerOptions{
		Server:   srv.URL,
		ID:       "iv-worker",
		PollWait: 100 * time.Millisecond,
		ExecProgress: func(c campaign.Cell, onInterval func(done, planned int)) (*campaign.Record, error) {
			onInterval(3, 8)
			<-release
			return fakeExec(c)
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })

	if _, err := client.Submit([]campaign.Cell{testCell(16, "gzip")}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		p := coord.progress()
		if p.IntervalsDone == 3 && p.IntervalsPlanned == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("interval progress never reached the coordinator (got %d/%d)",
				p.IntervalsDone, p.IntervalsPlanned)
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(release)

	id := testCell(16, "gzip").ID()
	if _, err := client.Result(id, 10*time.Second); err != nil {
		t.Fatalf("cell never completed: %v", err)
	}
}

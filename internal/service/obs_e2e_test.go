package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/obs"
	"largewindow/internal/telemetry"
)

// scrape fetches and parses the coordinator's /metrics exposition.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + PathMetrics)
	if err != nil {
		t.Fatalf("scraping metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics answered HTTP %d", resp.StatusCode)
	}
	vals, err := obs.ReadMetrics(resp.Body)
	if err != nil {
		t.Fatalf("metrics exposition does not parse: %v", err)
	}
	return vals
}

// TestObsMetricsScrapeMonotone is the /metrics smoke gate: the scrape
// must parse before, during, and after a sweep, and the key counters
// must be monotone and land on the sweep's true totals.
func TestObsMetricsScrapeMonotone(t *testing.T) {
	coord, srv := startCoordinator(t, CoordinatorOptions{
		LeaseTTL: time.Second,
		Events:   obs.NewBus(),
	})
	startWorkers(t, srv.URL, 2, fakeExec)
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 200 * time.Millisecond})

	before := scrape(t, srv.URL)
	for _, key := range []string{
		"service_cells_submitted", "service_cells_completed", "service_cells_failed",
		"service_queue_depth", "service_active_leases", "service_requeues",
		"service_retries", "service_rejected", "service_instrs",
		"service_events_published",
	} {
		if _, ok := before[key]; !ok {
			t.Errorf("scrape missing %s", key)
		}
	}
	if before["service_cells_submitted"] != 0 {
		t.Fatalf("fresh coordinator reports %v submitted", before["service_cells_submitted"])
	}

	cells := []campaign.Cell{
		testCell(16, "gzip"), testCell(32, "gzip"), testCell(64, "gzip"),
		testCell(16, "art"), testCell(32, "art"), testCell(64, "art"),
	}
	for _, c := range cells {
		if _, err := client.Exec(c); err != nil {
			t.Fatalf("exec %s: %v", c, err)
		}
	}

	after := scrape(t, srv.URL)
	for _, key := range []string{"service_cells_submitted", "service_cells_completed", "service_instrs", "service_events_published"} {
		if after[key] < before[key] {
			t.Errorf("%s went backwards: %v -> %v", key, before[key], after[key])
		}
	}
	if got := after["service_cells_submitted"]; got != float64(len(cells)) {
		t.Errorf("submitted = %v, want %d", got, len(cells))
	}
	if got := after["service_cells_completed"]; got != float64(len(cells)) {
		t.Errorf("completed = %v, want %d", got, len(cells))
	}
	// fakeExec commits MaxInstr per cell; the aggregate must match.
	if got, want := after["service_instrs"], float64(len(cells))*5000; got != want {
		t.Errorf("instrs = %v, want %v", got, want)
	}
	if after["service_active_leases"] != 0 || after["service_queue_depth"] != 0 {
		t.Errorf("idle fleet reports %v leases, queue %v",
			after["service_active_leases"], after["service_queue_depth"])
	}
	if st := coord.Stats(); st.Instrs != uint64(len(cells))*5000 {
		t.Errorf("Stats().Instrs = %d, want %d", st.Instrs, len(cells)*5000)
	}
}

// TestWorkerMetricsCountInstrs: a worker's worker.instrs counts the
// committed instructions of every record it delivers, so the sum over
// the cells it completed appears in its /metrics exposition.
func TestWorkerMetricsCountInstrs(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{LeaseTTL: time.Second})
	metrics := &WorkerMetrics{}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	w := NewWorker(WorkerOptions{Server: srv.URL, ID: "w0", Exec: fakeExec, PollWait: 50 * time.Millisecond, Metrics: metrics})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 200 * time.Millisecond})
	var want uint64
	for _, c := range []campaign.Cell{testCell(16, "gzip"), testCell(32, "art"), testCell(64, "mst")} {
		rec, err := client.Exec(c)
		if err != nil {
			t.Fatalf("exec %s: %v", c, err)
		}
		want += rec.Stats.Committed
	}
	// The last outcome is delivered on the worker's next lease request,
	// or by its shutdown flush: stop it so every delivery has happened.
	cancel()
	<-done
	reg := telemetry.NewRegistry()
	metrics.Register(reg)
	var buf bytes.Buffer
	if err := obs.WriteMetrics(&buf, reg); err != nil {
		t.Fatal(err)
	}
	vals, err := obs.ReadMetrics(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := vals["worker_instrs"]; want == 0 || got != float64(want) {
		t.Errorf("worker_instrs = %v, want %d (the committed sum of the delivered records)", got, want)
	}
}

// TestObsSSELifecycleSmoke is the SSE smoke gate: a subscriber on the
// live event stream must observe submit → lease → complete for a known
// cell, all carrying one consistent correlation ID.
func TestObsSSELifecycleSmoke(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{
		LeaseTTL: time.Second,
		Events:   obs.NewBus(),
	})
	startWorkers(t, srv.URL, 1, fakeExec)

	cell := testCell(48, "mcf")
	wantID := cell.ID()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	type sighting struct {
		types map[string]obs.Event
		err   error
	}
	got := make(chan sighting, 1)
	streaming := make(chan struct{})
	go func() {
		seen := map[string]obs.Event{}
		err := obs.StreamEvents(ctx, nil, srv.URL+PathEvents, func(ev obs.Event) error {
			select {
			case <-streaming:
			default:
				close(streaming)
			}
			if ev.CellID == wantID {
				seen[ev.Type] = ev
			}
			if len(seen) >= 3 { // submit, lease, complete all sighted
				return errDoneWatching
			}
			return nil
		})
		if err == errDoneWatching {
			err = nil
		}
		got <- sighting{seen, err}
	}()

	// The stream must be attached before the submit or the submit event
	// is unobservable; progress events tick every second, so wait for
	// any delivery as the attachment signal.
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 200 * time.Millisecond})
	select {
	case <-streaming:
	case <-time.After(15 * time.Second):
		t.Fatal("SSE stream never delivered an event (progress heartbeat missing)")
	}
	if _, err := client.Exec(cell); err != nil {
		t.Fatalf("exec: %v", err)
	}

	res := <-got
	if res.err != nil {
		t.Fatalf("stream failed: %v", res.err)
	}
	for _, typ := range []string{obs.EventSubmit, obs.EventLease, obs.EventComplete} {
		if _, ok := res.types[typ]; !ok {
			t.Fatalf("lifecycle event %q never arrived for cell %s (saw %v)", typ, wantID, keys(res.types))
		}
	}
	corr := res.types[obs.EventSubmit].CorrID
	if corr == "" {
		t.Fatal("submit event carries no correlation ID")
	}
	for typ, ev := range res.types {
		if ev.CorrID != corr {
			t.Errorf("event %q corr %q != submit corr %q", typ, ev.CorrID, corr)
		}
	}
	if ev := res.types[obs.EventComplete]; ev.Worker == "" {
		t.Error("complete event does not name the worker")
	}
}

var errDoneWatching = fmt.Errorf("done watching")

func keys(m map[string]obs.Event) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestObsFleetTraceSmoke is the fleet-trace smoke gate: a traced sweep
// must leave ≥1 span per lifecycle stage per executed cell in the span
// log, correlation-consistent across coordinator and worker records,
// and the stitched output must pass the repo's Chrome-trace validator.
func TestObsFleetTraceSmoke(t *testing.T) {
	store, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var spanBuf bytes.Buffer
	spans := obs.NewSpanLog(&spanBuf)
	_, srv := startCoordinator(t, CoordinatorOptions{
		LeaseTTL: time.Second,
		Store:    store,
		Spans:    spans,
	})
	startWorkers(t, srv.URL, 2, fakeExec)
	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 200 * time.Millisecond})

	cells := []campaign.Cell{
		testCell(16, "treeadd"), testCell(32, "treeadd"),
		testCell(16, "mst"), testCell(32, "mst"),
	}
	for _, c := range cells {
		if _, err := client.Exec(c); err != nil {
			t.Fatalf("exec %s: %v", c, err)
		}
	}
	if err := spans.Flush(); err != nil {
		t.Fatalf("flushing span log: %v", err)
	}

	recorded, err := obs.ReadSpans(bytes.NewReader(spanBuf.Bytes()))
	if err != nil {
		t.Fatalf("span log does not parse: %v", err)
	}
	sum := obs.StitchSummary(recorded)
	if sum.Cells != len(cells) {
		t.Fatalf("spans cover %d cells, want %d", sum.Cells, len(cells))
	}
	for _, stage := range []string{obs.SpanQueued, obs.SpanLeased, obs.SpanAttempt, obs.SpanExecuting, obs.SpanPersisting} {
		if sum.PerStage[stage] < len(cells) {
			t.Errorf("stage %q has %d spans, want >= %d (one per executed cell)",
				stage, sum.PerStage[stage], len(cells))
		}
	}
	if sum.CorrMismatch != 0 {
		t.Errorf("%d cells carry inconsistent correlation IDs", sum.CorrMismatch)
	}
	for _, sp := range recorded {
		if sp.CorrID == "" {
			t.Fatalf("span %s/%s has no correlation ID", sp.Name, sp.CellID)
		}
	}
	// Coordinator and worker hops must both be present in one file.
	hasCoord, hasWorker := false, false
	for _, src := range sum.Sources {
		if src == "coordinator" {
			hasCoord = true
		} else {
			hasWorker = true
		}
	}
	if !hasCoord || !hasWorker {
		t.Fatalf("span log misses a hop: sources %v", sum.Sources)
	}

	var trace bytes.Buffer
	if err := obs.StitchChromeTrace(&trace, recorded); err != nil {
		t.Fatalf("stitching: %v", err)
	}
	st, err := telemetry.ReadChromeTrace(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatalf("stitched trace fails the validator: %v", err)
	}
	if st.Events == 0 {
		t.Fatal("stitched trace is empty")
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/golden"
	"largewindow/internal/obs"
)

// logRecorder is a slog.Handler that keeps every record it is handed.
type logRecorder struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *logRecorder) Enabled(context.Context, slog.Level) bool { return true }
func (h *logRecorder) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *logRecorder) WithGroup(string) slog.Handler            { return h }

func (h *logRecorder) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs = append(h.recs, r.Clone())
	return nil
}

// lifecycleCells are the golden scenario's five cells: A completes, B
// fails transiently then completes, C fails permanently and is
// resubmitted, D is the poison cell whose leases expire, H is in the
// store before the coordinator starts.
func lifecycleCells() map[string]campaign.Cell {
	return map[string]campaign.Cell{
		"A": testCell(16, "gzip"),
		"B": testCell(16, "art"),
		"C": testCell(16, "mcf"),
		"D": testCell(16, "treeadd"),
		"H": testCell(16, "mst"),
	}
}

// TestLifecycleGolden drives one scripted, single-actor scenario through
// the HTTP API and pins what the coordinator reports about it: the event
// stream, the span log, the log records, the stats and the /metrics
// counters, with sequence numbers, times and lease IDs normalised. It was
// recorded from the coordinator before its rewrite as a transition
// function, and must stay byte-identical.
func TestLifecycleGolden(t *testing.T) {
	cells := lifecycleCells()
	letter := map[string]string{} // cell ID → letter
	for k, c := range cells {
		letter[c.ID()] = k
	}
	name := func(id, cell string) string {
		if k, ok := letter[id]; ok && (cell == "" || cell == cells[k].String()) {
			return k
		}
		return "?" + id + "/" + cell
	}
	leases := map[string]string{} // lease ID → L1, L2, ... by first sighting
	lease := func(id string) string {
		if id == "" {
			return ""
		}
		if _, ok := leases[id]; !ok {
			leases[id] = fmt.Sprintf("L%d", len(leases)+1)
		}
		return leases[id]
	}

	store, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hit, _ := fakeExec(cells["H"])
	hit.CellID = cells["H"].ID()
	if err := store.Put(hit); err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	sub := bus.Subscribe(4096)
	var spanBuf bytes.Buffer
	logs := &logRecorder{}
	coord, srv := startCoordinator(t, CoordinatorOptions{
		Store:            store,
		Resume:           true,
		LeaseTTL:         250 * time.Millisecond,
		Retry:            campaign.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond},
		MaxRequeues:      1,
		Log:              slog.New(logs),
		Events:           bus,
		Spans:            obs.NewSpanLog(&spanBuf),
		ProgressInterval: time.Hour,
	})

	var out strings.Builder
	submit := func(corr string, pruned, audited uint64, ks ...string) {
		t.Helper()
		req := SubmitRequest{CorrID: corr, ModelPruned: pruned, ModelAudited: audited}
		for _, k := range ks {
			req.Cells = append(req.Cells, cells[k])
		}
		stamp(&req.SchemaVersion)
		var resp SubmitResponse
		if code, msg := postRaw(t, srv.URL+PathSubmit, &req, &resp); code != http.StatusOK {
			t.Fatalf("submit %v: HTTP %d %s", ks, code, msg)
		}
		fmt.Fprintf(&out, "submit %s %v: enqueued %d\n", corr, ks, resp.Enqueued)
	}
	leaseReq := func(worker string, done *CompleteRequest) *Lease {
		t.Helper()
		req := LeaseRequest{WorkerID: worker, Done: done}
		stamp(&req.SchemaVersion)
		var resp LeaseResponse
		if code, msg := postRaw(t, srv.URL+PathLease, &req, &resp); code != http.StatusOK {
			t.Fatalf("lease: HTTP %d %s", code, msg)
		}
		fmt.Fprintf(&out, "lease %s", worker)
		if done != nil {
			fmt.Fprintf(&out, " done %s: %d", lease(done.LeaseID), resp.DoneStatus)
		}
		if ls := resp.Lease; ls != nil {
			fmt.Fprintf(&out, " -> %s %s attempt %d corr %s", lease(ls.LeaseID), name(ls.CellID, ls.Cell.String()), ls.Attempt, ls.CorrID)
		}
		out.WriteString("\n")
		return resp.Lease
	}
	outcome := func(ls *Lease, worker, errMsg string, transient bool) *CompleteRequest {
		req := &CompleteRequest{WorkerID: worker, LeaseID: ls.LeaseID, Error: errMsg, Transient: transient}
		if errMsg == "" {
			req.Record = fakeRecord(ls)
		}
		stamp(&req.SchemaVersion)
		return req
	}
	complete := func(req *CompleteRequest) {
		t.Helper()
		code, _ := postRaw(t, srv.URL+PathComplete, req, nil)
		fmt.Fprintf(&out, "complete %s %s: %d\n", req.WorkerID, lease(req.LeaseID), code)
	}
	heartbeat := func(ls *Lease, worker string) {
		t.Helper()
		req := HeartbeatRequest{WorkerID: worker, LeaseID: ls.LeaseID}
		stamp(&req.SchemaVersion)
		code, _ := postRaw(t, srv.URL+PathHeartbeat, &req, nil)
		fmt.Fprintf(&out, "heartbeat %s %s: %d\n", worker, lease(ls.LeaseID), code)
	}
	must := func(ls *Lease, k string) *Lease {
		t.Helper()
		if ls == nil || ls.CellID != cells[k].ID() {
			t.Fatalf("lease %+v, want cell %s\n%s", ls, k, out.String())
		}
		return ls
	}

	// --- the scenario ---
	submit("corr-1", 0, 0, "A", "B", "H", "C", "D")
	l1 := must(leaseReq("w1", nil), "A")
	done := outcome(l1, "w1", "", false)
	done.Spans = []obs.Span{{CorrID: l1.CorrID, CellID: l1.CellID, Cell: l1.Cell.String(), Name: obs.SpanExecuting, Src: "worker:w1", Attempt: l1.Attempt}}
	l2 := must(leaseReq("w1", done), "B")
	l3 := must(leaseReq("w1", done), "C") // the same outcome again: 410
	complete(outcome(l2, "w1", "transient blip", true))
	complete(outcome(l3, "w1", "hard simulator bug", false))
	st := coord.Stats()
	fmt.Fprintf(&out, "mid: queue_depth %d active_leases %d\n", st.QueueDepth, st.ActiveLeases)
	l4 := must(leaseReq("w2", nil), "D")
	waitFor(t, func() bool { return coord.Stats().Requeues == 1 })
	l5 := must(leaseReq("w3", nil), "D") // requeued ahead of B
	heartbeat(l5, "w3")
	waitFor(t, func() bool { return coord.Stats().Failed == 2 })
	complete(outcome(l4, "w2", "", false)) // a zombie: 410
	heartbeat(l4, "w2")
	l6 := must(leaseReq("w1", nil), "B")
	complete(outcome(l6, "w1", "", false))
	submit("corr-2", 0, 0, "C", "A")
	l7 := must(leaseReq("w1", nil), "C")
	if ls := leaseReq("w1", outcome(l7, "w1", "", false)); ls != nil {
		t.Fatalf("dry queue leased %+v", ls)
	}
	submit("corr-3", 3, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// --- what the coordinator reported ---
	out.WriteString("# events\n")
	for len(sub.Events()) > 0 {
		ev := <-sub.Events()
		fmt.Fprintf(&out, "%s", ev.Type)
		for _, kv := range [][2]string{
			{"cell", nameIf(ev.CellID, ev.Cell, name)}, {"corr", ev.CorrID}, {"worker", ev.Worker},
			{"lease", lease(ev.LeaseID)}, {"attempt", fmt.Sprint(ev.Attempt)}, {"error", ev.Error}, {"note", ev.Note},
		} {
			if kv[1] != "" && kv[1] != "0" {
				fmt.Fprintf(&out, " %s=%q", kv[0], kv[1])
			}
		}
		out.WriteString("\n")
	}
	out.WriteString("# spans\n")
	spans, err := obs.ReadSpans(&spanBuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range spans {
		fmt.Fprintf(&out, "%s %s src=%s corr=%s attempt=%d note=%q\n", sp.Name, name(sp.CellID, sp.Cell), sp.Src, sp.CorrID, sp.Attempt, sp.Note)
	}
	out.WriteString("# logs\n")
	logs.mu.Lock()
	for _, r := range logs.recs {
		fmt.Fprintf(&out, "%s %q", r.Level, r.Message)
		r.Attrs(func(a slog.Attr) bool {
			v := a.Value.String()
			switch a.Key {
			case "lease":
				v = lease(v)
			case "cell_id":
				v = name(v, "")
			}
			fmt.Fprintf(&out, " %s=%q", a.Key, v)
			return true
		})
		out.WriteString("\n")
	}
	logs.mu.Unlock()
	out.WriteString("# stats\n")
	stats, _ := json.Marshal(coord.Stats())
	out.Write(stats)
	out.WriteString("\n# metrics\n")
	resp, err := http.Get(srv.URL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(metrics.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			out.WriteString(line + "\n")
		}
	}
	golden.CheckText(t, "testdata/lifecycle.golden", out.String())
}

// nameIf names a cell an event carries, or nothing for an event about
// no cell.
func nameIf(id, cell string, name func(id, cell string) string) string {
	if id == "" && cell == "" {
		return ""
	}
	return name(id, cell)
}

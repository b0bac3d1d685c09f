// The generative test of the coordinator's transitions: a byte script
// becomes a sequence of operations on a fake clock, applied the way the
// handlers, the reaper and the cool-down timers apply them, but with no
// HTTP, no store and no goroutine. A model of the queue and the cells'
// places is kept beside it and checked after every step.
package service

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"largewindow/internal/campaign"
)

// Operations of a lifecycle script, one opcode byte each, followed by the
// argument bytes named.
const (
	opSubmit    = iota // k, n: submit cells k .. k+n-1 in one request
	opLease            // lease the front cell
	opHeartbeat        // i: heartbeat held lease i, or a dead one
	opSettle           // i, how: settle held lease i (OK, transient, permanent, wrong cell) or a stale one
	opRedeliver        // deliver the last accepted outcome again
	opExpire           // d: advance the clock d+1 half-TTLs and expire what is due
	opPromote          // end the oldest cool-down
	numOps
)

// Ways to settle a lease.
const (
	settleOK = iota
	settleTransient
	settlePermanent
	settleWrongCell
	settleStale
	numSettles
)

const (
	scriptCells = 8
	scriptHit   = 2 // the cell in the store before the script starts
	scriptTTL   = time.Minute
)

// lifecycleHarness drives one coordinator through a script.
type lifecycleHarness struct {
	t     *testing.T
	c     *Coordinator
	cells []campaign.Cell
	ids   []string
	now   time.Time

	model    []*svcCell // the queue as the script expects it
	cooling  []*svcCell // cells cooling down, oldest first
	held     []string   // live leases, oldest first
	dead     []string   // leases claimed or expired
	last     *CompleteRequest
	nextID   int
	writes   map[string]int // store writes per cell
	armings  map[string]int // fresh lifecycles per cell
	verdicts map[string]int // verdicts per cell
}

func newLifecycleHarness(t *testing.T, cells []campaign.Cell, ids []string, cooldown bool) *lifecycleHarness {
	opt := CoordinatorOptions{
		QueueCap:    6,
		LeaseTTL:    scriptTTL,
		MaxRequeues: 1,
		Retry:       campaign.RetryPolicy{MaxAttempts: 3},
	}
	if cooldown {
		opt.Retry.BaseDelay = time.Second
	}
	return &lifecycleHarness{
		t: t,
		// No NewCoordinator: no reaper, no progress loop, nothing but the
		// state the transitions share.
		c:        &Coordinator{opt: opt.withDefaults(), cells: map[string]*svcCell{}, leases: map[string]*svcCell{}},
		cells:    cells,
		ids:      ids,
		now:      time.Unix(1<<30, 0),
		writes:   map[string]int{},
		armings:  map[string]int{},
		verdicts: map[string]int{},
	}
}

// run applies one script, checking the invariants after every step, then
// drains what is left with OK completions.
func (h *lifecycleHarness) run(script []byte) {
	arg := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	for step := 0; len(script) > 0 && step < 400; step++ {
		op := arg() % numOps
		switch op {
		case opSubmit:
			k, n := arg(), 1+arg()%5
			var ks []int
			for i := 0; i < n; i++ {
				ks = append(ks, (k+i)%scriptCells)
			}
			h.submit(ks)
		case opLease:
			h.lease()
		case opHeartbeat:
			h.heartbeat(arg())
		case opSettle:
			i, how := arg(), arg()%numSettles
			h.settle(i, how)
		case opRedeliver:
			if h.last != nil {
				h.refused(func() int { return h.deliver(h.last) })
			}
		case opExpire:
			h.expire(time.Duration(1+arg()%4) * scriptTTL / 2)
		case opPromote:
			h.promote()
		}
		h.check(fmt.Sprintf("step %d (op %d)", step, op))
	}
	h.drain()
}

func (h *lifecycleHarness) submit(ks []int) {
	cells := make([]campaign.Cell, len(ks))
	in := make([]arrival, len(ks))
	for i, k := range ks {
		cells[i], in[i].id = h.cells[k], h.ids[k]
		if k == scriptHit {
			in[i].hit = encodedRecord(`{}`)
		}
	}
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.submit(h.now, cells, "corr", in); !ok {
		c.emit(step{kind: stepRejected})
		return
	}
	for _, a := range in {
		c.emit(a.step)
		switch a.step.kind {
		case stepQueued:
			h.model = append(h.model, a.sc)
			h.armings[a.id]++
		case stepHit:
			h.armings[a.id]++
			h.verdicts[a.id]++
		}
	}
}

func (h *lifecycleHarness) lease() {
	c := h.c
	id := fmt.Sprintf("lease-%d", h.nextID)
	h.nextID++
	c.mu.Lock()
	s := c.lease(h.now, "w", id)
	c.emit(s)
	sc := c.leases[id]
	c.mu.Unlock()
	if s.kind == stepNone {
		if len(h.model) != 0 {
			h.t.Fatalf("lease found the queue empty, model holds %d cells", len(h.model))
		}
		return
	}
	if len(h.model) == 0 || sc != h.model[0] {
		h.t.Fatalf("leased %s, not the cell at the front of the queue", sc.id)
	}
	h.model = h.model[1:]
	h.held = append(h.held, id)
}

// pick is held lease i, or — when i lands one past the end — a dead one.
func (h *lifecycleHarness) pick(i int) (id string, live bool) {
	if i %= len(h.held) + 1; i < len(h.held) {
		return h.held[i], true
	}
	return h.deadLease(i), false
}

// deadLease is a lease claimed or expired, or one never issued.
func (h *lifecycleHarness) deadLease(i int) string {
	if len(h.dead) == 0 {
		return "never-issued"
	}
	return h.dead[i%len(h.dead)]
}

func (h *lifecycleHarness) heartbeat(i int) {
	id, live := h.pick(i)
	beat := func() int {
		c := h.c
		c.mu.Lock()
		defer c.mu.Unlock()
		s := c.heartbeat(h.now, &HeartbeatRequest{WorkerID: "w", LeaseID: id})
		c.emit(s)
		if s.kind == stepNone {
			return 410
		}
		return 200
	}
	if !live {
		h.refused(beat)
	} else if code := beat(); code != 200 {
		h.t.Fatalf("heartbeat on live lease %s answered %d", id, code)
	}
}

func (h *lifecycleHarness) settle(i, how int) {
	id, live := h.pick(i)
	if how == settleStale {
		id, live = h.deadLease(i), false
	}
	req := &CompleteRequest{WorkerID: "w", LeaseID: id}
	switch how {
	case settleOK, settleStale:
		req.Record = &campaign.Record{}
	case settleTransient:
		req.Error, req.Transient = "blip", true
	case settlePermanent:
		req.Error = "bug"
	case settleWrongCell:
		req.Record = &campaign.Record{CellID: "not-this-cell"}
	}
	if !live {
		h.refused(func() int { return h.deliver(req) })
		return
	}
	if code := h.deliver(req); code != 200 {
		h.t.Fatalf("outcome on live lease %s answered %d", id, code)
	}
	h.last = req
}

// deliver is Coordinator.deliver with the store write counted instead of
// made, and the cool-down timer left to opPromote.
func (h *lifecycleHarness) deliver(req *CompleteRequest) int {
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	sc, s := c.claim(h.now, req)
	c.emit(s)
	if sc == nil {
		return 410
	}
	h.held = slices.DeleteFunc(h.held, func(id string) bool { return id == req.LeaseID })
	h.dead = append(h.dead, req.LeaseID)
	if s.err == "" {
		s.enc = encodedRecord(`{}`)
		h.writes[sc.id]++
	}
	s = c.settle(h.now, sc, s)
	c.emit(s)
	switch {
	case s.kind == stepDone || s.kind == stepFailed:
		h.verdicts[sc.id]++
	case s.delay > 0:
		h.cooling = append(h.cooling, sc)
	default:
		h.model = append(h.model, sc)
	}
	return 200
}

func (h *lifecycleHarness) expire(d time.Duration) {
	h.now = h.now.Add(d)
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range slices.Clone(h.held) {
		sc := c.leases[id]
		s := c.expire(h.now, sc)
		c.emit(s)
		if s.kind == stepNone {
			continue
		}
		h.held = slices.DeleteFunc(h.held, func(x string) bool { return x == id })
		h.dead = append(h.dead, id)
		if s.err != "" {
			h.verdicts[sc.id]++
		} else {
			h.model = append([]*svcCell{sc}, h.model...)
		}
	}
}

func (h *lifecycleHarness) promote() {
	if len(h.cooling) == 0 {
		return
	}
	sc := h.cooling[0]
	h.cooling = h.cooling[1:]
	h.c.mu.Lock()
	h.c.promote(sc)
	h.c.mu.Unlock()
	h.model = append(h.model, sc)
}

// refused applies an operation that must be answered 410 and must change
// no state and no counter.
func (h *lifecycleHarness) refused(op func() int) {
	before := h.state()
	if code := op(); code != 410 {
		h.t.Fatalf("stale operation answered %d, want 410", code)
	}
	if after := h.state(); after != before {
		h.t.Fatalf("a 410 changed the coordinator:\n before %s\n after  %s", before, after)
	}
}

// state renders everything a transition may change.
func (h *lifecycleHarness) state() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v", h.c.Stats())
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range h.ids {
		if sc := c.cells[id]; sc != nil {
			fmt.Fprintf(&b, " %s:%s/%d", id[:6], sc.status, sc.attempts)
			if sc.inflight != nil {
				fmt.Fprintf(&b, "/%d/%d/%s/%d", sc.failures, sc.requeues, sc.leaseID, sc.expiry.UnixNano())
			}
		}
	}
	for i := 0; i < c.queue.len(); i++ {
		fmt.Fprintf(&b, " q:%s", (*c.queue.slot(i)).id[:6])
	}
	return b.String()
}

// check holds the invariants: every known cell is in exactly one place —
// queue, lease table, cool-down, done, failed — in the status that place
// implies; the queue is the model's, in order; no cell has passed
// MaxRequeues without a verdict.
func (h *lifecycleHarness) check(where string) {
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	places := map[*svcCell][]string{}
	if c.queue.len() != len(h.model) {
		h.t.Fatalf("%s: queue holds %d cells, model %d", where, c.queue.len(), len(h.model))
	}
	for i, sc := range h.model {
		if *c.queue.slot(i) != sc {
			h.t.Fatalf("%s: queue position %d is not the model's %s", where, i, sc.id)
		}
		places[sc] = append(places[sc], "queue")
	}
	if len(c.leases) != len(h.held) {
		h.t.Fatalf("%s: %d leases, model %d", where, len(c.leases), len(h.held))
	}
	for _, sc := range c.leases {
		places[sc] = append(places[sc], "leased")
	}
	if c.cooling != len(h.cooling) {
		h.t.Fatalf("%s: %d cells cooling, model %d", where, c.cooling, len(h.cooling))
	}
	for _, sc := range h.cooling {
		places[sc] = append(places[sc], "cooling")
	}
	want := map[string]string{"queue": StatusPending, "cooling": StatusPending, "leased": StatusRunning}
	for id, sc := range c.cells {
		switch sc.status {
		case StatusDone, StatusFailed:
			places[sc] = append(places[sc], sc.status)
			if sc.inflight != nil {
				h.t.Fatalf("%s: %s cell %s kept its scheduling state", where, sc.status, id)
			}
		}
		if p := places[sc]; len(p) != 1 || (want[p[0]] != "" && want[p[0]] != sc.status) {
			h.t.Fatalf("%s: cell %s (%s) is in %v", where, id, sc.status, p)
		}
		if sc.inflight != nil && sc.requeues > c.opt.MaxRequeues {
			h.t.Fatalf("%s: cell %s requeued %d times, MaxRequeues %d, no verdict", where, id, sc.requeues, c.opt.MaxRequeues)
		}
	}
	if len(places) != len(c.cells) {
		h.t.Fatalf("%s: %d cells placed, %d known", where, len(places), len(c.cells))
	}
}

// drain settles everything left with OK completions, then holds every
// armed lifecycle to exactly one verdict, and every cell that ran to
// exactly one store write.
func (h *lifecycleHarness) drain() {
	for round := 0; len(h.held)+len(h.model)+len(h.cooling) > 0; round++ {
		if round > 100 {
			h.t.Fatalf("drain does not converge: %d held, %d queued, %d cooling", len(h.held), len(h.model), len(h.cooling))
		}
		for len(h.held) > 0 {
			h.settle(0, settleOK)
		}
		for len(h.cooling) > 0 {
			h.promote()
		}
		for len(h.model) > 0 {
			h.lease()
		}
		h.check(fmt.Sprintf("drain round %d", round))
	}
	for i, id := range h.ids {
		sc := h.c.cells[id]
		if sc == nil {
			continue
		}
		if h.armings[id] != h.verdicts[id] {
			h.t.Errorf("cell %d: %d lifecycles, %d verdicts", i, h.armings[id], h.verdicts[id])
		}
		want := 0
		if sc.status == StatusDone && i != scriptHit {
			want = 1
		}
		if h.writes[id] != want {
			h.t.Errorf("cell %d (%s): %d store writes, want %d", i, sc.status, h.writes[id], want)
		}
	}
}

// lifecycleGoldenScript is TestLifecycleGolden's scenario as a script:
// cells 0, 1, 3, 4 are its A, B, C, D and cell 2 (scriptHit) its H.
var lifecycleGoldenScript = []byte{
	1,              // cool-downs on
	opSubmit, 0, 4, // A B H C D
	opLease,               // A
	opSettle, 0, settleOK, // A done
	opLease,                      // B
	opRedeliver,                  // A's outcome again: 410
	opLease,                      // C
	opSettle, 0, settleTransient, // B cools down
	opSettle, 0, settlePermanent, // C fails
	opLease,     // D
	opPromote,   // B's cool-down ends
	opExpire, 1, // D expires, requeued ahead of B
	opLease,        // D, attempt 2
	opHeartbeat, 0, // D's lease renewed
	opExpire, 1, // D expires again: poison
	opSettle, 0, settleStale, // a zombie's completion: 410
	opHeartbeat, 1, // and its heartbeat: 410
	opLease, opSettle, 0, settleOK, // B done
	opSubmit, 3, 0, // C resubmitted
	opSubmit, 0, 0, // A: a duplicate
	opLease, opSettle, 0, settleOK, // C done
}

// scriptUniverse is the cells a script names, and their IDs.
func scriptUniverse() ([]campaign.Cell, []string) {
	cells := make([]campaign.Cell, scriptCells)
	ids := make([]string, scriptCells)
	for i := range cells {
		cells[i] = testCell(16+i, "gzip")
		ids[i] = cells[i].ID()
	}
	return cells, ids
}

func FuzzCoordinatorLifecycle(f *testing.F) {
	f.Add(lifecycleGoldenScript)
	noCooldown := slices.Clone(lifecycleGoldenScript)
	noCooldown[0] = 0
	f.Add(noCooldown)
	f.Add([]byte{1, opSubmit, 5, 4, opLease, opLease, opLease, opExpire, 0, opExpire, 3, opLease, opSettle, 1, settleWrongCell, opSubmit, 0, 4})
	cells, ids := scriptUniverse()
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		h := newLifecycleHarness(t, cells, ids, script[0]&1 != 0)
		h.run(script[1:])
	})
}

// TestLifecycleScriptIsTheGolden: the golden scenario as a script lands
// on the counters testdata/lifecycle.golden records for it (less the
// model-pruned submission and the instructions, which the script has not).
func TestLifecycleScriptIsTheGolden(t *testing.T) {
	cells, ids := scriptUniverse()
	h := newLifecycleHarness(t, cells, ids, true)
	h.run(lifecycleGoldenScript[1:])
	st := h.c.Stats()
	got := fmt.Sprintf("%d submitted, %s", st.Submitted, st.Summary())
	if want := "5 submitted, 4 completed, 2 failed, 1 cache hits, 1 retries, 1 requeues, 2 lease expiries"; got != want {
		t.Errorf("the golden script ends with %s, the golden with %s", got, want)
	}
}

package campaign

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"largewindow/internal/obs"
)

// TestRenderLineSane drives the one status renderer (obs.Progress.Line)
// through the snapshot shapes a live campaign can produce, local engine
// and fleet alike, and pins each line whole. The local lines are the ones
// the local renderer printed before the fleet's shared it; every line
// stays sane: no NaN/Inf/negative figure, no ETA when no estimate exists.
func TestRenderLineSane(t *testing.T) {
	cases := []struct {
		name     string
		s        Snapshot // a local engine's snapshot, when fleet is nil
		expected uint64
		fleet    *obs.Progress // a coordinator's snapshot: ETA and rate filled as it fills them
		credit   float64       // the fleet's in-flight interval credit
		want     string
	}{
		{
			name:     "campaign start: nothing done, zero elapsed",
			s:        Snapshot{Total: 0, Elapsed: 0},
			expected: 40,
			want:     "campaign 0/40 cells · 0 instrs/s",
		},
		{
			name: "zero everything",
			s:    Snapshot{},
			want: "campaign 0/0 cells · 0 instrs/s",
		},
		{
			name:     "all cache hits: done without executing",
			s:        Snapshot{Total: 10, Done: 5, CacheHits: 5, Executed: 0, Elapsed: 2 * time.Second},
			expected: 10,
			want:     "campaign 5/10 cells (5 cached) · 0 instrs/s",
		},
		{
			name: "instrs counted but zero elapsed",
			s:    Snapshot{Total: 4, Done: 1, Executed: 1, Instrs: 1_000_000, Elapsed: 0},
			want: "campaign 1/4 cells · 0 instrs/s",
		},
		{
			name: "healthy mid-campaign",
			s:    Snapshot{Total: 40, Done: 10, Executed: 10, Instrs: 50_000_000, Elapsed: 10 * time.Second},
			want: "campaign 10/40 cells · 5.0M instrs/s · ETA 0:30",
		},
		{
			name: "finished: no ETA",
			s:    Snapshot{Total: 8, Done: 8, Executed: 8, Instrs: 8_000, Elapsed: 4 * time.Second},
			want: "campaign 8/8 cells · 2.0k instrs/s",
		},
		{
			name: "failures and retries surface",
			s: Snapshot{Total: 6, Done: 4, Executed: 4, Failed: 2, Retries: 3,
				Instrs: 400, Elapsed: time.Second},
			want: "campaign 4/6 cells (3 retried) (2 FAILED) · 400 instrs/s · ETA 0:01",
		},
		{
			name: "checkpoint cache activity surfaces",
			s:    Snapshot{Total: 4, Done: 2, Executed: 2, Elapsed: time.Second, CkptBuilt: 2, CkptReused: 6},
			want: "campaign 2/4 cells · ckpt 2 built/6 reused · 0 instrs/s · ETA 0:01",
		},
		{
			name:     "expected larger than engine total wins",
			s:        Snapshot{Total: 3, Done: 3, Executed: 3, Elapsed: time.Second},
			expected: 12,
			want:     "campaign 3/12 cells · 0 instrs/s · ETA 0:03",
		},
		{
			name: "absurd extrapolation suppressed",
			s:    Snapshot{Total: 1_000_000, Done: 1, Executed: 1, Elapsed: 10 * time.Hour},
			want: "campaign 1/1000000 cells · 0 instrs/s",
		},
		{
			name:     "negative elapsed: no ETA, no negative rate",
			s:        Snapshot{Total: 10, Done: 2, Executed: 2, Elapsed: -5 * time.Second},
			expected: 10,
			want:     "campaign 2/10 cells · 0 instrs/s",
		},
		{
			name:     "over-complete counts: no ETA",
			s:        Snapshot{Total: 10, Done: 12, Executed: 12, Elapsed: time.Second},
			expected: 10,
			want:     "campaign 12/10 cells · 0 instrs/s",
		},
		{
			name:     "resumed: store hits are free",
			s:        Snapshot{Total: 100, Done: 91, CacheHits: 90, Executed: 1, Elapsed: 2 * time.Second},
			expected: 100,
			want:     "campaign 91/100 cells (90 cached) · 0 instrs/s · ETA 0:18",
		},
		{
			// 3 s / 1.275 cells × 3.725 left ≈ 8.8 s; without the credit, 12 s.
			name: "sampled and pruned: intervals replace the rate",
			s: Snapshot{Total: 5, Done: 1, Executed: 1, Elapsed: 3 * time.Second,
				InFlight: inFlight(11, 40), ModelPruned: 15, ModelAudited: 2},
			want: "campaign 1/5 cells · model 15 pruned/2 audited · interval 11/40 · ETA 0:09",
		},
		{
			name:  "fleet start: all queued",
			fleet: &obs.Progress{Submitted: 40, QueueDepth: 38, Running: 2},
			want:  "campaign 0/40 cells · 2 running, queue 38 · 0 instrs/s",
		},
		{
			name: "fleet resumed: store hits are free",
			fleet: &obs.Progress{Submitted: 100, Done: 91, CacheHits: 90, Running: 1, QueueDepth: 8,
				Instrs: 4_000_000, ElapsedSec: 2},
			want: "campaign 91/100 cells (90 cached) · 1 running, queue 8 · 2.0M instrs/s · ETA 0:18",
		},
		{
			name: "fleet failures, retries and in-flight interval credit",
			fleet: &obs.Progress{Submitted: 10, Done: 3, Failed: 1, Retries: 2, Running: 2, QueueDepth: 4,
				Instrs: 1_000_000, ElapsedSec: 4, IntervalsDone: 5, IntervalsPlanned: 10, ModelPruned: 7, ModelAudited: 1},
			credit: 0.5, // 4 s / 4.5 cells × 5.5 left ≈ 4.9 s
			want:   "campaign 4/10 cells (2 retried) (1 FAILED) · 2 running, queue 4 · model 7 pruned/1 audited · interval 5/10 · ETA 0:05",
		},
		{
			name:   "fleet: credit alone gives an ETA",
			fleet:  &obs.Progress{Submitted: 1, Running: 1, ElapsedSec: 3, IntervalsDone: 1, IntervalsPlanned: 4},
			credit: 0.25,
			want:   "campaign 0/1 cells · 1 running, queue 0 · interval 1/4 · ETA 0:09",
		},
		{
			name:  "fleet negative elapsed",
			fleet: &obs.Progress{Submitted: 5, Done: 2, Instrs: 100, ElapsedSec: -3},
			want:  "campaign 2/5 cells · 0 instrs/s",
		},
		{
			name:  "fleet over-complete counts",
			fleet: &obs.Progress{Submitted: 10, Done: 9, Failed: 3, ElapsedSec: 1},
			want:  "campaign 12/10 cells (3 FAILED) · 0 instrs/s",
		},
		{
			name:  "fleet extrapolation above 99 h",
			fleet: &obs.Progress{Submitted: 1_000_000, Done: 1, ElapsedSec: 36_000},
			want:  "campaign 1/1000000 cells · 0 instrs/s",
		},
		{
			name:  "fleet finished",
			fleet: &obs.Progress{Submitted: 8, Done: 6, Failed: 2, Instrs: 8_000, ElapsedSec: 4},
			want:  "campaign 8/8 cells (2 FAILED) · 2.0k instrs/s",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.fleet
			if p == nil {
				p = tc.s.Progress(tc.expected)
			} else {
				p.InstrsPerSec = obs.SaneRate(float64(p.Instrs), p.ElapsedSec)
				p.ETASec = p.ETA(tc.credit)
			}
			line := p.Line()
			if line != tc.want {
				t.Errorf("line %q\n want %q", line, tc.want)
			}
			for _, bad := range []string{"NaN", "Inf", "-"} {
				if strings.Contains(line, bad) {
					t.Errorf("line %q contains %q", line, bad)
				}
			}
		})
	}
}

// TestRenderETANegativeElapsed guards against a skewed clock producing a
// negative elapsed duration: the ETA must vanish, not go negative.
func TestRenderETANegativeElapsed(t *testing.T) {
	s := Snapshot{Total: 10, Done: 2, Executed: 2, Elapsed: -5 * time.Second}
	if p := s.Progress(10); p.ETASec >= 0 {
		t.Fatalf("negative elapsed produced ETA %g s; want none", p.ETASec)
	}
}

// oracleRenderETA is the local line's ETA rule as it stood before the
// local line and the fleet line shared one: remaining cells times the
// wall time per executed cell, in integer nanoseconds. ok is false for
// nothing finished, nothing left, nothing executed, zero or negative
// elapsed time, or an extrapolation above 99 hours.
func oracleRenderETA(s Snapshot, total uint64) (time.Duration, bool) {
	finished := s.Done
	if finished == 0 || finished >= total || s.Executed == 0 || s.Elapsed <= 0 {
		return 0, false
	}
	perCell := s.Elapsed / time.Duration(s.Executed)
	remain := perCell * time.Duration(total-finished)
	if remain < 0 || remain > time.Hour*99 {
		return 0, false
	}
	return remain, true
}

// etaVectors are snapshots without hits, as the engine produces them
// (Executed counts every finished cell, failed ones too): the shapes
// TestRenderLineSane pins and a seeded spread of others.
func etaVectors() []struct {
	s     Snapshot
	total uint64
} {
	vs := []struct {
		s     Snapshot
		total uint64
	}{
		{Snapshot{Total: 0}, 40},
		{Snapshot{}, 0},
		{Snapshot{Total: 4, Done: 1, Executed: 1}, 4},
		{Snapshot{Total: 40, Done: 10, Executed: 10, Elapsed: 10 * time.Second}, 40},
		{Snapshot{Total: 8, Done: 8, Executed: 8, Elapsed: 4 * time.Second}, 8},
		{Snapshot{Total: 6, Done: 4, Executed: 4, Failed: 2, Elapsed: time.Second}, 6},
		{Snapshot{Total: 3, Done: 3, Executed: 3, Elapsed: time.Second}, 12},
		{Snapshot{Total: 1_000_000, Done: 1, Executed: 1, Elapsed: 10 * time.Hour}, 1_000_000},
		{Snapshot{Total: 10, Done: 2, Executed: 2, Elapsed: -5 * time.Second}, 10},
		{Snapshot{Total: 10, Done: 12, Executed: 12, Elapsed: time.Second}, 10},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		total := uint64(1 + rng.Intn(5000))
		done := uint64(rng.Intn(int(total) + 1))
		failed := uint64(rng.Intn(int(done) + 1))
		s := Snapshot{Total: total, Done: done, Executed: done, Failed: failed,
			Elapsed: time.Duration(rng.Int63n(int64(200 * time.Hour)))}
		vs = append(vs, struct {
			s     Snapshot
			total uint64
		}{s, total})
	}
	return vs
}

// TestETAMatchesLocalOracle: on every snapshot without hits, the one ETA
// rule gives the local line's old estimate and the same verdict on
// whether one exists. The oracle truncates the per-cell time to the
// nanosecond, so it may fall short by a nanosecond per cell left.
func TestETAMatchesLocalOracle(t *testing.T) {
	for _, v := range etaVectors() {
		want, wok := oracleRenderETA(v.s, v.total)
		got := v.s.Progress(v.total).ETASec
		if ok := got >= 0; ok != wok || (ok && math.Abs(got-want.Seconds()) > 1e-9*float64(v.total)+1e-9) {
			t.Errorf("%+v of %d: ETA %g s (%v), oracle %v (%v)", v.s, v.total, got, ok, want, wok)
		}
	}
}

// inFlight sums cells given as done, planned, done, planned, ...
func inFlight(intervals ...uint64) (f obs.InFlight) {
	for i := 0; i+1 < len(intervals); i += 2 {
		f.Add(intervals[i], intervals[i+1])
	}
	return f
}

// TestLocalETACreditsCellsInFlight: the local line takes the in-flight
// cells' credit as the fleet's does. 10 cells, 2 executed in 10 s, two
// sampled cells 1/4 and 3/4 in: 10 s / 3 cells × 7 left ≈ 23.3 s, where
// the local rule without credit read 10 s / 2 × 8 = 40 s.
func TestLocalETACreditsCellsInFlight(t *testing.T) {
	s := Snapshot{Total: 10, Done: 2, Executed: 2, Elapsed: 10 * time.Second, InFlight: inFlight(1, 4, 3, 4)}
	p := s.Progress(10)
	if want := 70.0 / 3; math.Abs(p.ETASec-want) > 1e-9 {
		t.Errorf("ETA with two cells in flight at 1/4 and 3/4: %g s, want %g", p.ETASec, want)
	}
	if p.IntervalsDone != 4 || p.IntervalsPlanned != 8 {
		t.Errorf("intervals %d/%d, want 4/8", p.IntervalsDone, p.IntervalsPlanned)
	}
	if want, ok := oracleRenderETA(s, 10); !ok || want != 40*time.Second {
		t.Errorf("the credit-free local rule reads %v (%v), want 40s", want, ok)
	}
	s.InFlight = obs.InFlight{}
	if eta := s.Progress(10).ETASec; eta != 40 {
		t.Errorf("ETA with nothing in flight: %g s, want 40", eta)
	}
}

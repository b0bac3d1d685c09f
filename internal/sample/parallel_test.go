package sample

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"largewindow/internal/bpred"
	"largewindow/internal/core"
	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/mem"
	_ "largewindow/internal/trace" // the synth: workload scheme
	"largewindow/internal/workload"
)

// testPrograms are four kernels (one per memory personality) and two
// seeded synth programs, at test scale.
func testPrograms(t *testing.T) []*isa.Program {
	t.Helper()
	var progs []*isa.Program
	for _, name := range []string{"gzip", "mgrid", "mst", "treeadd"} {
		for _, s := range workload.All() {
			if s.Name == name {
				progs = append(progs, s.Build(workload.ScaleTest))
			}
		}
	}
	for _, ref := range []string{
		"synth:mlp=4,miss=0.1,ws=1m,n=30000,seed=3",
		"synth:mlp=1,miss=0.05,entropy=0.6,ws=128k,n=30000,seed=11",
	} {
		src, err := workload.ParseRef(ref)
		if err != nil {
			t.Fatal(err)
		}
		p, err := src.Build(workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	if len(progs) != 6 {
		t.Fatalf("built %d programs, want 6", len(progs))
	}
	return progs
}

func programLength(t *testing.T, prog *isa.Program) uint64 {
	t.Helper()
	n, err := ProgramLength(prog)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// planCase is a resolved plan (with its per-window cycle bound) and what
// it exercises.
type planCase struct {
	name      string
	plan      Plan
	maxCycles int64
}

// edgePlans builds the plans the parallel ≡ serial check runs on a
// program of total instructions: a random plan, back-to-back windows
// (every window waits for its predecessor's end), the program halting in
// a gap, inside a measured window and inside a warmup, and two cycle
// bounds (one stopping the first window inside its warmup, one cutting
// warmup-free windows short).
func edgePlans(total uint64) []planCase {
	const warm, length = 100, 300
	d := uint64(warm + length)
	return []planCase{
		{"random", Plan{Intervals: 6, Length: length, Warmup: warm, Seed: 9, Random: true}.Resolve(total), 0},
		{"adjacent", Plan{Intervals: 8, Period: d, Length: length, Warmup: warm}, 0},
		{"adjacent-random", Plan{Intervals: 8, Period: d + 7, Length: length, Warmup: warm, Seed: 4, Random: true}, 0},
		{"halt-in-gap", Plan{Intervals: 3, Period: total/2 + d, Length: length, Warmup: warm}, 0},
		{"halt-in-window", Plan{Intervals: 3, Period: total/2 + d/4, Length: length, Warmup: warm}, 0},
		{"halt-in-warmup", Plan{Intervals: 3, Period: total/2 + d/2 - warm/4, Length: length, Warmup: warm}, 0},
		{"cycles-in-warmup", Plan{Intervals: 5, Length: length, Warmup: warm}.Resolve(total), 40},
		{"cycles-in-window", Plan{Intervals: 5, Length: length}.Resolve(total), 100},
	}
}

// runAt runs the sampler with GOMAXPROCS set to procs and windows on
// exec, and returns its outcome, error and progress calls.
func runAt(procs int, cfg core.Config, prog *isa.Program, pc planCase, exec executor) (*Outcome, error, [][2]int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var calls [][2]int
	out, err := run(context.Background(), cfg, prog, pc.plan, pc.maxCycles,
		func(done, planned int) { calls = append(calls, [2]int{done, planned}) }, exec)
	return out, err, calls
}

// jitter is the window executor with a seeded random delay in front, so
// windows finish in a shuffled order.
func jitter(seed int64) executor {
	var mu sync.Mutex
	r := rand.New(rand.NewSource(seed))
	return func(ctx context.Context, cfg core.Config, prog *isa.Program, w core.Window) (core.WindowResult, error) {
		mu.Lock()
		d := time.Duration(r.Intn(400)) * time.Microsecond
		mu.Unlock()
		time.Sleep(d)
		return core.RunWindow(ctx, cfg, prog, w)
	}
}

// TestRunParallelMatchesSerial: the concurrent Run is the serial loop
// (runSerial) — DeepEqual Outcomes, the same progress calls and the same
// error — at GOMAXPROCS 1 and 2, and with windows finishing in a shuffled
// order, over four kernels and two synth programs on Base and WIB/2048,
// under the edge plans.
func TestRunParallelMatchesSerial(t *testing.T) {
	progs := testPrograms(t)
	cfgs := []core.Config{core.DefaultConfig(), core.WIBDefault()}
	type result struct {
		out   *Outcome
		err   error
		calls [][2]int
	}
	type variant struct {
		name  string
		procs int
		exec  executor
	}
	var serial []result // in loop order, filled by the first variant
	for vi, v := range []variant{{"procs=1", 1, core.RunWindow}, {"procs=2", 2, core.RunWindow}, {"procs=2,shuffled", 2, jitter(7)}} {
		i := 0
		for _, prog := range progs {
			total := programLength(t, prog)
			for _, cfg := range cfgs {
				for _, pc := range edgePlans(total) {
					if vi == 0 {
						if err := pc.plan.Validate(); err != nil {
							t.Fatalf("%s %s: %v", prog.Name, pc.name, err)
						}
						var r result
						r.out, r.err = runSerial(context.Background(), cfg, prog, pc.plan, pc.maxCycles,
							func(done, planned int) { r.calls = append(r.calls, [2]int{done, planned}) })
						serial = append(serial, r)
					}
					want := serial[i]
					i++
					got, err, calls := runAt(v.procs, cfg, prog, pc, v.exec)
					name := fmt.Sprintf("%s/%s/%s/%s", v.name, prog.Name, cfg.Name, pc.name)
					if fmt.Sprint(err) != fmt.Sprint(want.err) {
						t.Errorf("%s: error %v, serial %v", name, err, want.err)
					}
					if !reflect.DeepEqual(got, want.out) {
						t.Errorf("%s: outcome differs from the serial loop:\n got %+v\nwant %+v", name, got, want.out)
					}
					if !reflect.DeepEqual(calls, want.calls) {
						t.Errorf("%s: progress %v, serial %v", name, calls, want.calls)
					}
				}
			}
		}
	}
}

// TestRunPlansReachTheirEdges keeps edgePlans honest: each plan ends the
// way its name says on the serial loop, so the parallel ≡ serial check
// covers every way a run stops.
func TestRunPlansReachTheirEdges(t *testing.T) {
	cfg := core.WIBDefault()
	for _, prog := range testPrograms(t) {
		total := programLength(t, prog)
		for _, pc := range edgePlans(total) {
			out, err := runSerial(context.Background(), cfg, prog, pc.plan, pc.maxCycles, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", prog.Name, pc.name, err)
			}
			n, planned := len(out.IntervalIPCs), pc.plan.Intervals
			var ok bool
			switch pc.name {
			case "random", "adjacent", "adjacent-random":
				ok = n == planned && !out.Halted
			case "cycles-in-window":
				ok = n == planned && out.Stats.Committed < uint64(planned)*pc.plan.Length
			case "halt-in-gap":
				ok = out.Halted && n == 1 && out.TotalInstr == total
			case "halt-in-window":
				ok = out.Halted && n == 2 && out.TotalInstr == total
			case "halt-in-warmup":
				ok = out.Halted && n == 1
			case "cycles-in-warmup":
				ok = n == 0 && !out.Halted
			}
			if !ok {
				t.Errorf("%s %s: %d of %d intervals, halted %v, reached %d of %d", prog.Name, pc.name, n, planned, out.Halted, out.TotalInstr, total)
			}
		}
	}
}

// TestRunSnapshotsAreArchitectural: the hierarchy and predictor each
// window adopts are exactly what a fresh hierarchy and predictor hold
// after the functional stream from program entry to the window's start —
// no window's core, wrong path included, leaks into another's warm state.
// The fresh stream stops at every earlier window's start as the sampler's
// does, because each RunSink call re-touches the line it starts on.
func TestRunSnapshotsAreArchitectural(t *testing.T) {
	progs := testPrograms(t)
	type snap struct {
		h  *mem.Hierarchy
		bp *bpred.Predictor
	}
	for _, cfg := range []core.Config{core.DefaultConfig(), core.WIBDefault()} {
		for _, prog := range []*isa.Program{progs[0], progs[3], progs[4]} {
			var mu sync.Mutex
			snaps := map[uint64]snap{}
			record := func(ctx context.Context, cfg core.Config, prog *isa.Program, w core.Window) (core.WindowResult, error) {
				mu.Lock()
				snaps[w.Start.InstrCount] = snap{w.Hier.CloneInto(nil), w.Bpred.Clone()}
				mu.Unlock()
				return core.RunWindow(ctx, cfg, prog, w)
			}
			total := programLength(t, prog)
			for _, pc := range edgePlans(total)[:2] { // random and back-to-back
				clear(snaps)
				if _, err, _ := runAt(2, cfg, prog, pc, record); err != nil {
					t.Fatal(err)
				}
				if len(snaps) != pc.plan.Intervals {
					t.Fatalf("%s %s %s: %d windows seen, want %d", prog.Name, cfg.Name, pc.name, len(snaps), pc.plan.Intervals)
				}
				var starts []uint64
				for start := range snaps {
					starts = append(starts, start)
				}
				slices.Sort(starts)
				m := emu.New(prog)
				sink := core.WarmSink{H: mem.NewHierarchy(cfg.Mem), BP: bpred.New(cfg.Bpred)}
				for _, start := range starts {
					if _, err := m.RunSink(start-m.InstrCount, sink); err != nil && !errors.Is(err, emu.ErrNotHalted) {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(snaps[start].h, sink.H) {
						t.Errorf("%s %s %s: the window at %d adopts a hierarchy the functional stream did not build", prog.Name, cfg.Name, pc.name, start)
					}
					if !reflect.DeepEqual(snaps[start].bp, sink.BP) {
						t.Errorf("%s %s %s: the window at %d adopts a predictor the functional stream did not train", prog.Name, cfg.Name, pc.name, start)
					}
				}
			}
		}
	}
}

// goid returns the calling goroutine's id, from its stack header.
func goid() string {
	var buf [64]byte
	s := string(buf[:runtime.Stack(buf[:], false)])
	s = strings.TrimPrefix(s, "goroutine ")
	id, _, _ := strings.Cut(s, " ")
	return id
}

// waitGoroutines waits until no more than n goroutines are left, failing
// the test if some still run after a second.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, want ≤ %d:\n%s", runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunFirstFailureWins: whatever order windows finish in, Run returns
// the lowest failing window's error — the one the serial loop returns —
// and none from a window past a run-ending one. Every goroutine is gone
// when Run returns.
func TestRunFirstFailureWins(t *testing.T) {
	prog := testPrograms(t)[0]
	cfg := core.DefaultConfig()
	plan := Plan{Intervals: 8, Length: 300, Warmup: 100}.Resolve(programLength(t, prog))
	index := map[uint64]int{}
	for k := 0; k < plan.Intervals; k++ {
		index[plan.Offset(k)] = k
	}
	cases := []struct {
		name    string
		fail    map[int]time.Duration // window → how long before it fails
		short   int                   // a window that stops the run unmeasured (-1: none)
		wantErr string
	}{
		{"lowest of two, later one first", map[int]time.Duration{3: 20 * time.Millisecond, 4: 0}, -1, "window 3 failed"},
		{"stop before the failure", map[int]time.Duration{4: 0}, 2, ""},
	}
	for _, c := range cases {
		exec := func(ctx context.Context, cfg core.Config, prog *isa.Program, w core.Window) (core.WindowResult, error) {
			k := index[w.Start.InstrCount]
			if d, ok := c.fail[k]; ok {
				time.Sleep(d)
				return core.WindowResult{}, fmt.Errorf("window %d failed", k)
			}
			if k == c.short {
				return core.WindowResult{}, nil
			}
			return core.RunWindow(ctx, cfg, prog, w)
		}
		before := runtime.NumGoroutine()
		out, err, _ := runAt(2, cfg, prog, planCase{plan: plan}, exec)
		waitGoroutines(t, before)
		if c.wantErr == "" {
			if err != nil || len(out.IntervalIPCs) != c.short {
				t.Errorf("%s: err %v, %v intervals; want no error and %d intervals", c.name, err, out, c.short)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err %v, want %q", c.name, err, c.wantErr)
		}
	}
}

// TestRunRecoversWindowPanic: a panic on a window's goroutine comes back
// as Run's error, naming the interval and carrying the stack.
func TestRunRecoversWindowPanic(t *testing.T) {
	prog := testPrograms(t)[0]
	plan := Plan{Intervals: 4, Length: 300, Warmup: 100}.Resolve(programLength(t, prog))
	exec := func(ctx context.Context, cfg core.Config, prog *isa.Program, w core.Window) (core.WindowResult, error) {
		if w.Start.InstrCount == plan.Offset(1) {
			panic("injected")
		}
		return core.RunWindow(ctx, cfg, prog, w)
	}
	before := runtime.NumGoroutine()
	_, err, _ := runAt(2, core.DefaultConfig(), prog, planCase{plan: plan}, exec)
	waitGoroutines(t, before)
	if err == nil {
		t.Fatal("a panicking window returned no error")
	}
	for _, want := range []string{"interval 1 of " + prog.Name, "panic: injected", "TestRunRecoversWindowPanic"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not mention %q:\n%v", want, err)
		}
	}
}

// TestRunCancelledMidPlan: a context cancelled from the k-th progress
// callback cancels the windows still running, returns the cancellation,
// and leaves no goroutine behind. Windows past the k-th hold their start
// until the cancellation (or a timeout, which the progress count then
// flags), so the run is cut at the same window however they are
// scheduled.
func TestRunCancelledMidPlan(t *testing.T) {
	prog := testPrograms(t)[1]
	plan := Plan{Intervals: 12, Length: 300, Warmup: 100}.Resolve(programLength(t, prog))
	for _, k := range []int{1, 3, 6} {
		for _, procs := range []int{1, 2} {
			ctx, cancel := context.WithCancel(context.Background())
			exec := func(ctx context.Context, cfg core.Config, prog *isa.Program, w core.Window) (core.WindowResult, error) {
				if w.Start.InstrCount >= plan.Offset(k) {
					select {
					case <-ctx.Done():
					case <-time.After(10 * time.Second):
					}
				}
				return core.RunWindow(ctx, cfg, prog, w)
			}
			before := runtime.NumGoroutine()
			calls := 0
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				_, err := run(ctx, core.WIBDefault(), prog, plan, 0, func(done, _ int) {
					if calls++; done == k {
						cancel()
					}
				}, exec)
				if !errors.Is(err, context.Canceled) {
					t.Errorf("cancel at %d, procs %d: err %v, want context.Canceled", k, procs, err)
				}
			}()
			cancel()
			waitGoroutines(t, before)
			if calls != k {
				t.Errorf("cancel at %d, procs %d: %d progress calls, want %d", k, procs, calls, k)
			}
		}
	}
}

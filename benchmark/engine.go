package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// A run sets its workload up at least setupMinReps times, and goes on,
// up to setupMaxReps, until the set-ups have taken setupMinSeconds in
// all; setup_s is the median. Most set-ups take 10-70 ms, and the median
// of three of those moved by a fifth from run to run.
const (
	setupMinReps    = 3
	setupMaxReps    = 30
	setupMinSeconds = 0.3
)

// env is what a workload gets from the runner: the seed its inputs derive
// from, its size constants, and a scratch directory of its own.
type env struct {
	seed uint64
	sz   sizes
	tmp  string
	n    int // scratch subdirectories handed out so far
}

// tempDir returns a fresh empty directory under the run's scratch root.
func (e *env) tempDir() (string, error) {
	e.n++
	dir := filepath.Join(e.tmp, fmt.Sprintf("d%d", e.n))
	return dir, os.MkdirAll(dir, 0o755)
}

// cellResult is the simulated outcome of one cell: what must not depend
// on the host, on tracing, or on which pass produced it. Sampled cells
// carry their IPC bits in place of a stream hash.
type cellResult struct {
	Cell      string
	Skipped   uint64
	Committed uint64
	Cycles    int64
	Hash      uint64
}

func (c cellResult) tuple() string {
	return fmt.Sprintf("%s|%d|%d|%d|%016x", c.Cell, c.Skipped, c.Committed, c.Cycles, c.Hash)
}

// stepOut is what one step of a pass reports.
type stepOut struct {
	ops   uint64       // simulated instructions or cells completed
	calls int          // client-visible calls made (1 when lat is nil)
	lat   []float64    // per-call latency in ms; nil means the step is one call
	cells []cellResult // simulated outcomes, for the determinism checks and sim_digest
}

// step is one timed unit of a workload's pass: typically one facade call.
type step struct {
	name string
	run  func() (stepOut, error)
}

// instance is a set-up workload: the steps of one pass, the output checks
// that run after the timed region, and the teardown.
type instance struct {
	steps []step
	// verify checks the first pass's outputs against an independent
	// reference (golden-model stream hash, store contents). It returns
	// the number of checks made and a message per failed one.
	verify func(first []stepOut) (checks int, failures []string)
	close  func()
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	why  string
	// seeded reports whether the inputs depend on the seed (and so
	// whether sim_digest does).
	seeded bool
	setup  func(e *env) (*instance, error)
	// layered runs the same cells composed from the packages' public
	// functions under spans, plus the probes of the layers this workload
	// exercises.
	layered func(e *env, lc *layerCtx) error
}

// timing is the raw outcome of the timed region.
type timing struct {
	passes    int           // timed passes
	slow      []float64     // [timed pass] the host's slowdown beside the pass (calib.go)
	stepSecs  [][]float64   // [step][timed pass], as measured
	first     []stepOut     // the warm-up pass's outputs
	stepLat   [][][]float64 // [step][timed pass] the step's call latencies in ms, as measured, sorted
	calls     int
	failed    int
	failures  []string
	mallocs   uint64            // over the timed passes
	mismatch  int               // cells whose simulated tuple differed between passes
	tupleByID map[string]string // each cell's tuple, as first seen
}

// measure runs one untimed warm-up pass over the instance's steps, then
// whole timed passes until the time budget is spent (always at least
// one). The warm-up pass pays the process's first-touch costs (fresh heap
// pages, lazy tables), which made a first pass up to a fifth slower than
// the rest; its outputs are the ones the output checks look at.
func measure(inst *instance, seconds float64) *timing {
	n := len(inst.steps)
	t := &timing{stepSecs: make([][]float64, n), stepLat: make([][][]float64, n), tupleByID: map[string]string{}}
	t.pass(inst, false)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	before := calibrate()
	for t.passes == 0 || time.Since(start).Seconds() < seconds {
		t.pass(inst, true)
		after := calibrate()
		t.slow = append(t.slow, slowdown(before, after))
		before = after
		t.passes++
	}
	runtime.ReadMemStats(&m1)
	t.mallocs = m1.Mallocs - m0.Mallocs
	return t
}

// pass runs every step once. Every pass counts calls and failures and
// checks that each cell's simulated outcome repeats; only timed passes
// record durations and latencies.
func (t *timing) pass(inst *instance, timed bool) {
	for i, st := range inst.steps {
		t0 := time.Now()
		out, err := st.run()
		d := time.Since(t0).Seconds()
		if out.lat == nil {
			out.calls, out.lat = 1, []float64{d * 1e3}
		}
		t.calls += out.calls
		if timed {
			t.stepSecs[i] = append(t.stepSecs[i], d)
			t.stepLat[i] = append(t.stepLat[i], sortedCopy(out.lat))
		} else {
			t.first = append(t.first, out)
		}
		if err != nil {
			t.failed++
			t.failures = append(t.failures, fmt.Sprintf("%s: %v", st.name, err))
		}
		for _, c := range out.cells {
			tup := c.tuple()
			if prev, ok := t.tupleByID[c.Cell]; !ok {
				t.tupleByID[c.Cell] = tup
			} else if prev != tup {
				t.mismatch++
				t.failures = append(t.failures, fmt.Sprintf("%s: a later pass gave %s, the first %s", st.name, tup, prev))
			}
		}
	}
}

// callLatencies returns one latency per call of a pass at reference
// speed, each the median over the timed passes, so one noisy pass does
// not move the percentiles taken over them. A step that makes many calls
// (a fleet batch sends distinct cells every pass) contributes its sorted
// latencies rank by rank.
func (t *timing) callLatencies() []float64 {
	var lat []float64
	for _, passes := range t.stepLat {
		for rank := range passes[0] {
			at := make([]float64, 0, len(passes))
			for p, sorted := range passes {
				if rank < len(sorted) {
					at = append(at, sorted[rank]/t.slow[p])
				}
			}
			lat = append(lat, median(at))
		}
	}
	return sortedCopy(lat)
}

// passSeconds is the wall-clock of one pass: the sum over steps of each
// step's median time, so one slow pass does not move it. At reference
// speed every pass's times are first divided by the host's slowdown
// beside that pass; otherwise they are as measured.
func (t *timing) passSeconds(atReference bool) float64 {
	var s float64
	for _, secs := range t.stepSecs {
		at := append([]float64(nil), secs...)
		if atReference {
			for p := range at {
				at[p] /= t.slow[p]
			}
		}
		s += median(at)
	}
	return s
}

// passOps is the work of one pass.
func (t *timing) passOps() uint64 {
	var n uint64
	for _, o := range t.first {
		n += o.ops
	}
	return n
}

// cellTuples renders cells as sorted tuples.
func cellTuples(cells []cellResult) []string {
	tuples := make([]string, len(cells))
	for i, c := range cells {
		tuples[i] = c.tuple()
	}
	sort.Strings(tuples)
	return tuples
}

// simDigest is a sha256 over the sorted simulated tuples of one pass.
func simDigest(tuples []string) string {
	h := sha256.New()
	for _, s := range tuples {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func allCells(outs []stepOut) []cellResult {
	var cells []cellResult
	for _, o := range outs {
		cells = append(cells, o.cells...)
	}
	return cells
}

// rusage reads the process's resource usage; zero if the host refuses.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // a zero reading is the fallback
	return ru
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is in KB
// on Linux).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

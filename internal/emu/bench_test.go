package emu

import (
	"errors"
	"testing"

	"largewindow/internal/isa"
	"largewindow/internal/workload"
)

// benchPrograms builds the emu-ff workload's kernels (benchmark/workloads.go)
// at full scale: two integer, two FP, data images of 2-6 MB.
func benchPrograms(b *testing.B) []*isa.Program {
	b.Helper()
	var progs []*isa.Program
	for _, name := range []string{"bzip2", "gcc", "mgrid", "swim"} {
		spec, ok := workload.Get(name)
		if !ok {
			b.Fatalf("no kernel %q", name)
		}
		progs = append(progs, spec.Build(workload.ScaleFull))
	}
	return progs
}

// BenchmarkFastForwardPass is the profiling harness for the repository
// benchmark's emu-ff workload: one iteration is the fast-forward steps of
// one pass — build each kernel, then BuildCheckpoint 40M instructions in,
// about 36M of them bare and the last warmTail into the warm log — without
// the benchmark driver around it. (The pass's eight 10k-instruction
// detailed windows are under 2% of it and need internal/core.)
func BenchmarkFastForwardPass(b *testing.B) {
	var instrs uint64
	for i := 0; i < b.N; i++ {
		for _, p := range benchPrograms(b) {
			cp, err := BuildCheckpoint(p, 40_000_000)
			if err != nil {
				b.Fatal(err)
			}
			instrs += cp.InstrCount
		}
	}
	b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstrs/s")
}

// benchRun times step over 10M instructions of each kernel from reset and
// reports the emulation rate.
func benchRun(b *testing.B, step func(m *Machine, n uint64) (uint64, error)) {
	progs := benchPrograms(b)
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			n, err := step(New(p), 10_000_000)
			if err != nil && !errors.Is(err, ErrNotHalted) {
				b.Fatal(err)
			}
			instrs += n
		}
	}
	b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstrs/s")
}

// BenchmarkRunWarm is the run loop capturing every instruction into a
// WarmLog's rings, as BuildCheckpoint drives it over a fast-forward's last
// warmTail instructions (and over the whole skip when that tail leaves a
// ring short); the instructions before the tail run as BenchmarkRun.
func BenchmarkRunWarm(b *testing.B) {
	benchRun(b, func(m *Machine, n uint64) (uint64, error) {
		return m.RunSink(n, NewWarmLog(DefaultWarmMem, DefaultWarmFetch, DefaultWarmBranch))
	})
}

// countSink is the cheapest possible live sink, so BenchmarkRunSink times
// the loop's interface dispatch rather than a cache model.
type countSink struct{ fetch, load, store, branch uint64 }

func (c *countSink) WarmFetch(uint64)      { c.fetch++ }
func (c *countSink) WarmLoad(uint64)       { c.load++ }
func (c *countSink) WarmStore(uint64)      { c.store++ }
func (c *countSink) WarmBranch(WarmBranch) { c.branch++ }

// BenchmarkRunSink is the sampled-simulation path: every event through
// the WarmSink interface in program order.
func BenchmarkRunSink(b *testing.B) {
	var sink countSink
	benchRun(b, func(m *Machine, n uint64) (uint64, error) { return m.RunSink(n, &sink) })
}

// nopProfile drops every event, so BenchmarkRunProfile times the loop's
// three interface calls rather than a profiler.
type nopProfile struct{}

func (nopProfile) Instr(uint64, isa.Class)  {}
func (nopProfile) Mem(uint64, uint64, bool) {}
func (nopProfile) Branch(WarmBranch)        {}

// BenchmarkRunProfile is the interval model's path: every instruction
// through the ProfileSink interface.
func BenchmarkRunProfile(b *testing.B) {
	benchRun(b, func(m *Machine, n uint64) (uint64, error) { return m.RunProfile(n, nopProfile{}) })
}

// BenchmarkRun is the bare loop, no capture.
func BenchmarkRun(b *testing.B) {
	benchRun(b, func(m *Machine, n uint64) (uint64, error) { return m.Run(n) })
}

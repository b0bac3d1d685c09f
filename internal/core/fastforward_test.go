package core

import (
	"bytes"
	"reflect"
	"testing"

	"largewindow/internal/isa"
	"largewindow/internal/telemetry"
	"largewindow/internal/workload"
)

// ffTestConfigs covers every experiment family whose per-cycle behaviour
// the idle-cycle fast-forward must replay: the scaled base machine, the
// banked WIB, bit-vector-limited WIBs, each non-banked selection policy,
// the multicycle non-banked WIB, the pool-of-blocks organization, the
// slice core, the multi-banked register file, and a long-memory-latency
// machine (the configuration where fast-forward engages the most).
func ffTestConfigs() []Config {
	rr := WIBConfigSized(512, 16)
	rr.Name = "WIB-rr"
	rr.WIB.Banked = false
	rr.WIB.Policy = PolicyRoundRobinLoad

	old := WIBConfigSized(512, 16)
	old.Name = "WIB-oldest"
	old.WIB.Banked = false
	old.WIB.Policy = PolicyOldestLoad

	acc := WIBConfigSized(512, 0)
	acc.Name = "WIB-acc4"
	acc.WIB.Banked = false
	acc.WIB.Policy = PolicyProgramOrder
	acc.WIB.AccessLatency = 4

	slow := DefaultConfig()
	slow.Name = "base-mem1000"
	slow.Mem.MemLatency = 1000

	return []Config{
		DefaultConfig(),
		ScaledConfig(64, 512),
		WIBConfigSized(512, 0),
		WIBConfigSized(512, 8),
		rr, old, acc,
		WIBPoolOfBlocks(512, 16, 32),
		WIBWithSliceCore(512, 2),
		WIBMultiBankedRF(512, 8, 2),
		slow,
	}
}

// runForStats executes prog under cfg and returns the full statistics and
// the telemetry JSONL stream (sampled every 512 cycles).
func runForStats(t *testing.T, cfg Config, prog *workload.Spec, noFF bool) (*Stats, []byte, int64) {
	t.Helper()
	cfg.NoFastForward = noFF
	p, err := New(cfg, prog.Build(workload.ScaleTest))
	if err != nil {
		t.Fatalf("new processor (%s): %v", cfg.Name, err)
	}
	var buf bytes.Buffer
	col := telemetry.NewCollector(&buf, 512)
	p.AttachTelemetry(col)
	stats, err := p.Run(0, 200_000_000)
	if err != nil {
		t.Fatalf("run (%s, noFF=%v): %v", cfg.Name, noFF, err)
	}
	if err := col.Close(stats.Cycles); err != nil {
		t.Fatalf("telemetry close: %v", err)
	}
	skipped, _ := p.FastForwardStats()
	return stats, buf.Bytes(), skipped
}

// TestFastForwardEquivalence is the tentpole's correctness contract: for
// every experiment config family, a run with idle-cycle fast-forward
// produces bit-identical statistics AND a byte-identical telemetry sample
// stream to the cycle-by-cycle run.
func TestFastForwardEquivalence(t *testing.T) {
	specs := workload.All()
	for _, cfg := range ffTestConfigs() {
		cfg := cfg
		nCfg := len(ffTestConfigs())
		for i := range specs {
			spec := specs[i]
			// The full matrix is too slow: every config runs the first two
			// kernels plus one rotating pick, so all kernels stay covered.
			if i >= 2 && i%nCfg != hashMod(cfg.Name, nCfg) {
				continue
			}
			t.Run(cfg.Name+"/"+spec.Name, func(t *testing.T) {
				t.Parallel()
				ref, refTel, _ := runForStats(t, cfg, &spec, true)
				got, gotTel, skipped := runForStats(t, cfg, &spec, false)
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("stats diverge with fast-forward\n got %+v\nwant %+v", got, ref)
				}
				if !bytes.Equal(refTel, gotTel) {
					t.Errorf("telemetry streams diverge with fast-forward (%d vs %d bytes)",
						len(gotTel), len(refTel))
				}
				t.Logf("skipped %d of %d cycles", skipped, got.Cycles)
			})
		}
	}
}

func hashMod(s string, m int) int {
	h := 0
	for _, c := range s {
		h = (h*31 + int(c)) % m
	}
	return h
}

// TestFastForwardEngages ensures the optimization actually fires where it
// matters: a long-memory-latency run must skip a substantial fraction of
// its cycles, otherwise the equivalence test above is vacuous.
func TestFastForwardEngages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mem.MemLatency = 1000
	specs := workload.All()
	spec := &specs[0]
	p, err := New(cfg, spec.Build(workload.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run(0, 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	skipped, jumps := p.FastForwardStats()
	if skipped == 0 || jumps == 0 {
		t.Fatalf("fast-forward never engaged over %d cycles", stats.Cycles)
	}
	t.Logf("skipped %d/%d cycles in %d jumps", skipped, stats.Cycles, jumps)
}

// TestFastForwardEngagesAfterSquash is the squash-then-stall case: a
// mispredicted branch resolves behind an outstanding miss while the wrong
// path's multiplies queue for the two multipliers. The squash takes every
// requester with it, and the machine must report idle at the end of that
// very cycle: a squashed requester's bit is cleared on the spot (no stale
// request is left for a later select to find and drop), so "no request
// bit set" is exact and the fast-forward jumps the redirect penalty at
// once.
func TestFastForwardEngagesAfterSquash(t *testing.T) {
	b := isa.NewBuilder("squash-stall")
	far := b.Alloc(1 << 22)
	b.LiAddr(isa.S0, far)
	b.Li(isa.S2, 0)
	b.Li(isa.S4, 1)
	b.Loop(isa.S5, 6, func() {
		skip := b.NewLabel()
		b.Ld(isa.T0, isa.S0, 0) // misses to memory: blocks the head
		// The branch waits a multiply for the iteration's parity, so it
		// alternates and resolves after the wrong path has been renamed.
		b.Mul(isa.T1, isa.S2, isa.S4)
		b.Andi(isa.T1, isa.T1, 1)
		b.Bne(isa.T1, isa.Zero, skip)
		for i := 0; i < 40; i++ {
			b.Mul(isa.T2, isa.S4, isa.S4) // ready at once, two units
		}
		b.Bind(skip)
		b.Addi(isa.S2, isa.S2, 1)
		b.Li64(isa.T3, 512*1024)
		b.Add(isa.S0, isa.S0, isa.T3)
	})
	b.Halt()
	prog := b.MustBuild()

	p, err := New(DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	squashes, idleAtOnce := 0, 0
	for !p.halted && p.now < 1_000_000 {
		requesting, mispredicts := p.intIQ.req.n, p.stats.Mispredicts
		p.cycle()
		if p.stats.Mispredicts == mispredicts || requesting == 0 {
			continue
		}
		// A recovery with requesters in flight. Whatever still requests is
		// older than the branch; when nothing does, nothing else can move
		// until the redirect penalty has passed.
		squashes++
		if p.intIQ.req.n == 0 && p.rob[p.robHead].stage == stIssued {
			if !p.idle() {
				t.Fatalf("cycle %d: squash left no requester and a stalled front end, yet the machine is not idle\n%s", p.now, p.DebugDump(8))
			}
			idleAtOnce++
		}
	}
	if !p.halted {
		t.Fatal("no halt")
	}
	if squashes == 0 || idleAtOnce == 0 {
		t.Fatalf("%d recoveries squashed requesters, %d of them left the machine idle: the case went unexercised", squashes, idleAtOnce)
	}

	// End to end: the same program skips most of its cycles.
	p, err = New(DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run(0, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	skipped, jumps := p.FastForwardStats()
	t.Logf("%d recoveries with requesters in flight, %d idle at once; skipped %d/%d cycles in %d jumps",
		squashes, idleAtOnce, skipped, stats.Cycles, jumps)
	if skipped*2 < stats.Cycles {
		t.Errorf("fast-forward skipped %d of %d cycles of a run that is all misses and redirects", skipped, stats.Cycles)
	}
}

// TestRunDeterminism runs the same (config, kernel) twice in one process
// and requires byte-identical statistics and telemetry streams — the
// repeatability guarantee every experiment table rests on.
func TestRunDeterminism(t *testing.T) {
	specs := workload.All()
	for _, cfg := range []Config{DefaultConfig(), WIBConfigSized(512, 8)} {
		cfg := cfg
		spec := specs[len(specs)-1]
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			s1, tel1, _ := runForStats(t, cfg, &spec, false)
			s2, tel2, _ := runForStats(t, cfg, &spec, false)
			if !reflect.DeepEqual(s1, s2) {
				t.Errorf("repeated run produced different stats\n got %+v\nwant %+v", s2, s1)
			}
			if !bytes.Equal(tel1, tel2) {
				t.Errorf("repeated run produced different telemetry (%d vs %d bytes)", len(tel2), len(tel1))
			}
		})
	}
}

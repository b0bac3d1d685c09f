package core

// The hand-written window arithmetic Stats.Delta and Stats.Accumulate
// replaced (statswindow.go before the fold list), kept verbatim as the
// differential oracle: every field named once to subtract and once more
// to add. TestStatsWindowMatchesOracle holds the fold to it.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// oracleDelta returns the counters accumulated since prev: s - prev, field by
// field. Monotone counters subtract; peak/max fields keep s's value (the
// peak observed by the end of the window bounds the window's own peak);
// IPC is recomputed from the windowed committed/cycle counts. Name,
// Skipped, and StreamHash carry s's values — the stream hash is a running
// digest, not a counter.
func oracleDelta(s, prev Stats) Stats {
	d := Stats{
		Name:       s.Name,
		Cycles:     s.Cycles - prev.Cycles,
		Committed:  s.Committed - prev.Committed,
		Skipped:    s.Skipped,
		StreamHash: s.StreamHash,

		CondBranches: s.CondBranches - prev.CondBranches,
		CondCorrect:  s.CondCorrect - prev.CondCorrect,
		Mispredicts:  s.Mispredicts - prev.Mispredicts,
		Misfetches:   s.Misfetches - prev.Misfetches,

		Replays:        s.Replays - prev.Replays,
		StoreWaitHits:  s.StoreWaitHits - prev.StoreWaitHits,
		ForwardedLoads: s.ForwardedLoads - prev.ForwardedLoads,

		FetchedInstrs:  s.FetchedInstrs - prev.FetchedInstrs,
		SquashedInstrs: s.SquashedInstrs - prev.SquashedInstrs,

		WIBInsertions:    s.WIBInsertions - prev.WIBInsertions,
		WIBReinsertions:  s.WIBReinsertions - prev.WIBReinsertions,
		WIBInstructions:  s.WIBInstructions - prev.WIBInstructions,
		WIBMaxInsertions: s.WIBMaxInsertions,
		BitVectorStalls:  s.BitVectorStalls - prev.BitVectorStalls,
		WIBPeakOccupancy: s.WIBPeakOccupancy,
		HeadEvictions:    s.HeadEvictions - prev.HeadEvictions,
		PoolSpills:       s.PoolSpills - prev.PoolSpills,
		SliceExecuted:    s.SliceExecuted - prev.SliceExecuted,

		MLPPeak: s.MLPPeak,

		robOccupancy:     s.robOccupancy - prev.robOccupancy,
		occupancySamples: s.occupancySamples - prev.occupancySamples,
		mlpSum:           s.mlpSum - prev.mlpSum,
		mlpCycles:        s.mlpCycles - prev.mlpCycles,
	}
	for i := range d.classMix {
		d.classMix[i] = s.classMix[i] - prev.classMix[i]
	}
	if d.Cycles > 0 {
		d.IPC = float64(d.Committed) / float64(d.Cycles)
	}
	return d
}

// oracleAccumulate adds window w's counters into s. Peak/max fields take the
// maximum across windows; IPC is recomputed from the running totals;
// Name and StreamHash take w's values (the latest window wins, so the
// aggregate carries the final interval's stream digest). Skipped sums:
// each window's Skipped counts the functional instructions that preceded
// it.
func oracleAccumulate(s *Stats, w Stats) {
	s.Name = w.Name
	s.Cycles += w.Cycles
	s.Committed += w.Committed
	s.Skipped = w.Skipped
	s.StreamHash = w.StreamHash

	s.CondBranches += w.CondBranches
	s.CondCorrect += w.CondCorrect
	s.Mispredicts += w.Mispredicts
	s.Misfetches += w.Misfetches

	s.Replays += w.Replays
	s.StoreWaitHits += w.StoreWaitHits
	s.ForwardedLoads += w.ForwardedLoads

	s.FetchedInstrs += w.FetchedInstrs
	s.SquashedInstrs += w.SquashedInstrs

	s.WIBInsertions += w.WIBInsertions
	s.WIBReinsertions += w.WIBReinsertions
	s.WIBInstructions += w.WIBInstructions
	if w.WIBMaxInsertions > s.WIBMaxInsertions {
		s.WIBMaxInsertions = w.WIBMaxInsertions
	}
	s.BitVectorStalls += w.BitVectorStalls
	if w.WIBPeakOccupancy > s.WIBPeakOccupancy {
		s.WIBPeakOccupancy = w.WIBPeakOccupancy
	}
	s.HeadEvictions += w.HeadEvictions
	s.PoolSpills += w.PoolSpills
	s.SliceExecuted += w.SliceExecuted

	if w.MLPPeak > s.MLPPeak {
		s.MLPPeak = w.MLPPeak
	}

	for i := range s.classMix {
		s.classMix[i] += w.classMix[i]
	}
	s.robOccupancy += w.robOccupancy
	s.occupancySamples += w.occupancySamples
	s.mlpSum += w.mlpSum
	s.mlpCycles += w.mlpCycles

	if s.Cycles > 0 {
		s.IPC = float64(s.Committed) / float64(s.Cycles)
	}
}

// genStats is a Stats testing/quick can generate: every field random,
// the unexported accumulators and negative cycle counts included.
type genStats struct{ Stats }

func (genStats) Generate(r *rand.Rand, _ int) reflect.Value {
	var g genStats
	fillStats(&g.Stats, r.Uint64)
	g.IPC = r.Float64() * 8
	return reflect.ValueOf(g)
}

// TestStatsWindowMatchesOracle: over generated snapshots, Delta and
// Accumulate are the hand-written arithmetic they replaced, field for
// field and bit for bit (wrapping subtraction included).
func TestStatsWindowMatchesOracle(t *testing.T) {
	same := func(a, b genStats) bool {
		sum, want := a.Stats, a.Stats
		sum.Accumulate(b.Stats)
		oracleAccumulate(&want, b.Stats)
		diffStats(t, "Accumulate", sum, want)
		diffStats(t, "Delta", a.Delta(b.Stats), oracleDelta(a.Stats, b.Stats))
		return !t.Failed()
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

package core

// Stats window arithmetic for sampled simulation (internal/sample): a
// measured interval is the delta between two snapshots of one processor's
// cumulative stats (after warmup, after measure), and a sampled cell's
// aggregate record sums those windows across intervals. Both operations
// must cover the unexported accumulators too, so derived metrics
// (AvgROBOccupancy, AvgMLP, ClassCount) stay correct on windowed stats —
// which is why they live here, in package core.

// fold is the one list of Stats' additive counters: s.X += k*o.X for each
// of them, in wrapping arithmetic, so k = 1 adds o's window to s and
// k = ^0 (that is, -1) takes it away. A new counter is a field on Stats
// and a line here; the labels (Name, Skipped, StreamHash), the three
// peaks and the derived IPC are not counters and are Delta's and
// Accumulate's own business. A multiplier, not a func(a *uint64, b
// uint64): a pointer handed to a function value escapes, and Delta's
// result would be allocated per window.
func (s *Stats) fold(o *Stats, k uint64) {
	s.Cycles += int64(k) * o.Cycles
	s.Committed += k * o.Committed

	s.CondBranches += k * o.CondBranches
	s.CondCorrect += k * o.CondCorrect
	s.Mispredicts += k * o.Mispredicts
	s.Misfetches += k * o.Misfetches

	s.Replays += k * o.Replays
	s.StoreWaitHits += k * o.StoreWaitHits
	s.ForwardedLoads += k * o.ForwardedLoads

	s.FetchedInstrs += k * o.FetchedInstrs
	s.SquashedInstrs += k * o.SquashedInstrs

	s.WIBInsertions += k * o.WIBInsertions
	s.WIBReinsertions += k * o.WIBReinsertions
	s.WIBInstructions += k * o.WIBInstructions
	s.BitVectorStalls += k * o.BitVectorStalls
	s.HeadEvictions += k * o.HeadEvictions
	s.PoolSpills += k * o.PoolSpills
	s.SliceExecuted += k * o.SliceExecuted

	for i := range s.classMix {
		s.classMix[i] += k * o.classMix[i]
	}
	s.robOccupancy += k * o.robOccupancy
	s.occupancySamples += k * o.occupancySamples
	s.mlpSum += k * o.mlpSum
	s.mlpCycles += k * o.mlpCycles
}

// Delta returns the counters accumulated since prev: s with prev's
// counters taken away and IPC recomputed from the windowed committed and
// cycle counts. Everything else is s's own: the peak observed by the end
// of the window bounds the window's own peak, and Name, Skipped and
// StreamHash (a running digest, not a counter) describe the later
// snapshot.
func (s Stats) Delta(prev Stats) Stats {
	s.fold(&prev, ^uint64(0))
	s.IPC = 0
	if s.Cycles > 0 {
		s.IPC = float64(s.Committed) / float64(s.Cycles)
	}
	return s
}

// Accumulate adds window w's counters into s. Peaks take the maximum
// across windows; IPC is recomputed from the running totals; Name,
// Skipped and StreamHash take w's values (the latest window wins, so the
// aggregate carries the final interval's stream digest and the count of
// functional instructions that preceded it).
func (s *Stats) Accumulate(w Stats) {
	s.fold(&w, 1)
	s.WIBMaxInsertions = max(s.WIBMaxInsertions, w.WIBMaxInsertions)
	s.WIBPeakOccupancy = max(s.WIBPeakOccupancy, w.WIBPeakOccupancy)
	s.MLPPeak = max(s.MLPPeak, w.MLPPeak)
	s.Name, s.Skipped, s.StreamHash = w.Name, w.Skipped, w.StreamHash
	if s.Cycles > 0 {
		s.IPC = float64(s.Committed) / float64(s.Cycles)
	}
}

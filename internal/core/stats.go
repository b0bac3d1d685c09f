package core

import "largewindow/internal/isa"

// Stats accumulates everything the evaluation reports.
type Stats struct {
	Name string `json:"name,omitempty"`

	Cycles    int64   `json:"cycles"`
	Committed uint64  `json:"committed"`
	IPC       float64 `json:"ipc"`

	// Skipped counts instructions fast-forwarded functionally before the
	// measured region began (RestoreCheckpoint); Committed and every other
	// counter cover the measured region only.
	Skipped uint64 `json:"skipped,omitempty"`

	// StreamHash is the hash of the committed PC stream; it must match the
	// functional emulator's for the same program (golden-model property).
	StreamHash uint64 `json:"stream_hash"`

	// Branch prediction (committed conditional branches only, as in the
	// paper's "Branch Dir Pred" column).
	CondBranches uint64 `json:"cond_branches"`
	CondCorrect  uint64 `json:"cond_correct"`
	Mispredicts  uint64 `json:"mispredicts"` // recoveries triggered by branches
	Misfetches   uint64 `json:"misfetches"`  // BTB-miss bubbles for predicted-taken transfers

	// Memory ordering.
	Replays uint64 `json:"replays"` // load-store order violation squashes
	// StoreWaitHits counts select examinations (load × cycle) that found
	// a load held back by the store-wait table, not loads: a held load
	// counts once on each cycle select's scan reaches it, whether select
	// asks it or passes it asleep in its held set (issueQueue.held), and a
	// fast-forwarded span counts each held load once a cycle.
	StoreWaitHits  uint64 `json:"store_wait_hits"`
	ForwardedLoads uint64 `json:"forwarded_loads"`

	// Fetch.
	FetchedInstrs  uint64 `json:"fetched_instrs"`
	SquashedInstrs uint64 `json:"squashed_instrs"`

	// WIB behaviour.
	WIBInsertions    uint64 `json:"wib_insertions"`     // total times instructions entered the WIB
	WIBReinsertions  uint64 `json:"wib_reinsertions"`   // instructions reinserted into an issue queue
	WIBInstructions  uint64 `json:"wib_instructions"`   // committed instructions that ever entered it
	WIBMaxInsertions int    `json:"wib_max_insertions"` // worst single-instruction insertion count
	// BitVectorStalls counts select examinations (load × cycle) that found
	// a load missing with no free bit-vector, not loads; counted as
	// StoreWaitHits is.
	BitVectorStalls  uint64 `json:"bit_vector_stalls"`
	WIBPeakOccupancy int    `json:"wib_peak_occupancy"`
	HeadEvictions    uint64 `json:"head_evictions"` // forward-progress spills of queued instructions
	PoolSpills       uint64 `json:"pool_spills"`    // pool-of-blocks overflows (§3.5 organization)
	SliceExecuted    uint64 `json:"slice_executed"` // instructions executed on the slice core (§6)

	// Memory-level parallelism: outstanding demand-load L2 misses,
	// accumulated over cycles with at least one outstanding (the paper's
	// motivation is overlapping these misses; see AvgMLP).
	MLPPeak int `json:"mlp_peak"`

	classMix         [16]uint64
	robOccupancy     uint64
	occupancySamples uint64
	mlpSum           uint64
	mlpCycles        uint64
}

// finish derives the summary figures at end of run.
func (s *Stats) finish(now int64, cfg Config) {
	s.Name = cfg.Name
	s.Cycles = now
	if now > 0 {
		s.IPC = float64(s.Committed) / float64(now)
	}
}

// CondAccuracy is the committed conditional-branch direction prediction
// rate (paper Table 2 "Branch Dir Pred").
func (s *Stats) CondAccuracy() float64 {
	if s.CondBranches == 0 {
		return 1
	}
	return float64(s.CondCorrect) / float64(s.CondBranches)
}

// AvgROBOccupancy reports mean active-list occupancy over non-empty
// cycles.
func (s *Stats) AvgROBOccupancy() float64 {
	if s.occupancySamples == 0 {
		return 0
	}
	return float64(s.robOccupancy) / float64(s.occupancySamples)
}

// AvgWIBInsertions is the mean number of WIB entries per instruction that
// used the WIB at all (the paper reports 4 avg / 280 max for mgrid under
// the banked policy).
func (s *Stats) AvgWIBInsertions() float64 {
	if s.WIBInstructions == 0 {
		return 0
	}
	return float64(s.WIBInsertions) / float64(s.WIBInstructions)
}

// AvgMLP is the mean number of outstanding demand-load L2 misses over
// cycles during which at least one was outstanding (0 for runs that never
// missed to memory).
func (s *Stats) AvgMLP() float64 {
	if s.mlpCycles == 0 {
		return 0
	}
	return float64(s.mlpSum) / float64(s.mlpCycles)
}

// MLPCycles reports how many cycles had at least one demand-load L2 miss
// outstanding.
func (s *Stats) MLPCycles() uint64 { return s.mlpCycles }

// ClassCount returns how many instructions of the given class committed.
func (s *Stats) ClassCount(c isa.Class) uint64 { return s.classMix[c] }

// Package core implements the cycle-level out-of-order processor model:
// a 7-stage, 8-wide superscalar loosely based on the Alpha 21264 (paper
// Table 1) — speculative fetch with combined branch prediction, register
// renaming onto physical register files, separate integer and floating-
// point issue queues with wakeup–select, speculative load execution with a
// store-wait table, in-order commit — plus the paper's contribution, the
// Waiting Instruction Buffer (WIB), which moves the dependence chains of
// load cache misses out of the small issue queues and reinserts them when
// the miss resolves.
package core

import (
	"fmt"

	"largewindow/internal/bpred"
	"largewindow/internal/mem"
)

// WIBPolicy selects how eligible instructions are chosen for reinsertion
// into the issue queue (paper §3.3.1 and §4.4).
type WIBPolicy int

// Reinsertion selection policies.
const (
	// PolicyBanked is the paper's default hardware design: 2×width banks,
	// each delivering its oldest eligible instruction every other cycle,
	// with sticky round-robin bank priority to avoid livelock.
	PolicyBanked WIBPolicy = iota
	// PolicyProgramOrder idealizes a single-cycle WIB that extracts
	// eligible instructions in full program order.
	PolicyProgramOrder
	// PolicyRoundRobinLoad rotates across completed loads, taking each
	// load's instructions in program order.
	PolicyRoundRobinLoad
	// PolicyOldestLoad drains all instructions of the oldest completed
	// load before moving to the next.
	PolicyOldestLoad
)

func (p WIBPolicy) String() string {
	switch p {
	case PolicyBanked:
		return "banked"
	case PolicyProgramOrder:
		return "program-order"
	case PolicyRoundRobinLoad:
		return "round-robin-load"
	case PolicyOldestLoad:
		return "oldest-load"
	default:
		return fmt.Sprintf("policy%d", int(p))
	}
}

// WIBOrg selects the WIB's internal organization.
type WIBOrg int

// WIB organizations.
const (
	// OrgBitVector is the paper's design (§3.3): WIB slots aligned with
	// the active list, one bit-vector per outstanding load miss.
	OrgBitVector WIBOrg = iota
	// OrgPoolOfBlocks is the alternative the paper considered and
	// rejected (§3.5): each load miss claims fixed-size blocks from a
	// shared pool and dependents are deposited in dependence-chain order;
	// chains are reinserted in deposit order, and the design can run out
	// of blocks (instructions then spill to the eligible pool, the
	// deadlock-avoidance the paper says the real design would need).
	OrgPoolOfBlocks
)

func (o WIBOrg) String() string {
	if o == OrgPoolOfBlocks {
		return "pool-of-blocks"
	}
	return "bit-vector"
}

// WIBConfig configures the waiting instruction buffer. A nil *WIBConfig in
// Config disables the WIB entirely (conventional machine).
type WIBConfig struct {
	// Entries is the WIB capacity. It must equal the active list size
	// (every active-list entry owns a WIB slot, §3.3).
	Entries int
	// BitVectors caps the number of outstanding load misses (each needs a
	// bit-vector, §4.2). 0 means unlimited (bounded only by the load
	// queue).
	BitVectors int
	// Banked selects the banked organization; false models the
	// non-banked multicycle WIB of §4.5/Figure 7.
	Banked bool
	// Banks is the bank count (2× reinsertion width in the paper).
	Banks int
	// AccessLatency is the non-banked access time in cycles (4 or 6 in
	// Figure 7). Ignored when Banked.
	AccessLatency int64
	// Policy selects the reinsertion policy. Policies other than
	// PolicyBanked idealize a single-cycle full-WIB access (§4.4).
	Policy WIBPolicy
	// EagerPretend applies the paper's proposed optimization: an
	// instruction is pretend-ready as soon as ONE operand is pretend
	// ready, rather than requiring the others to be truly ready.
	EagerPretend bool
	// TriggerL2MissOnly moves dependents to the WIB only for loads that
	// also miss in the L2 (ablation; the paper triggers on any L1 load
	// miss).
	TriggerL2MissOnly bool
	// Org selects the internal organization (§3.3 bit-vectors vs. the
	// §3.5 pool-of-blocks alternative).
	Org WIBOrg
	// BlockSlots and Blocks size the pool-of-blocks organization: Blocks
	// blocks of BlockSlots instruction slots each (defaults: 32-slot
	// blocks covering the WIB capacity).
	BlockSlots int
	Blocks     int
	// SliceWidth, when positive, adds the paper's §6 future-work idea: a
	// separate execution core that runs eligible WIB instructions
	// directly — up to SliceWidth non-memory instructions per cycle
	// execute without consuming main-core dispatch or issue bandwidth.
	// Memory operations and branches still reinsert into the issue
	// queues (they need the LSQ and recovery machinery).
	SliceWidth int
}

// RegFileKind selects the register-file timing model.
type RegFileKind int

// Register file models.
const (
	// RFSingle is a uniform single-cycle file (conventional configs).
	RFSingle RegFileKind = iota
	// RFTwoLevel is the paper's two-level file: RFL1Capacity registers
	// with free access backed by a pipelined second level.
	RFTwoLevel
	// RFMultiBanked is the multi-banked alternative the paper cites in
	// §3.4: single-level, but reads contend for per-bank ports.
	RFMultiBanked
)

// Config describes one processor configuration. DefaultConfig reproduces
// the paper's base machine (32-IQ/128).
type Config struct {
	Name string

	FetchWidth  int
	DecodeWidth int // dispatch width into the issue queues
	CommitWidth int
	IFQSize     int

	IntIQSize  int
	FPIQSize   int
	IssueInt   int // integer issue width
	IssueFP    int // floating-point issue width
	ActiveList int
	IntRegs    int // physical integer registers
	FPRegs     int // physical floating-point registers
	LoadQueue  int
	StoreQueue int

	// Functional units (paper Table 1).
	NumIntALU  int
	NumIntMult int
	NumFPAdd   int
	NumFPMult  int
	NumFPDiv   int
	NumFPSqrt  int

	LatIntALU  int64
	LatIntMult int64
	LatFPAdd   int64
	LatFPMult  int64
	LatFPDiv   int64 // non-pipelined
	LatFPSqrt  int64 // non-pipelined

	MispredictPenalty int64 // "9-cycle for others"
	MisfetchPenalty   int64 // "2-cycle penalty for direct jumps missed in BTB"

	StoreWaitEntries       int
	StoreWaitClearInterval int64

	RegFile      RegFileKind
	RFL1Capacity int
	RFReadPorts  int
	RFL2Latency  int64
	RFBanks      int // multi-banked: number of banks
	RFBankPorts  int // multi-banked: read ports per bank
	// RFPrefetchOnReinsert pulls an instruction's source registers into
	// the two-level file's first level when the WIB reinserts it (§6
	// future work: "prefetching in a two-level organization").
	RFPrefetchOnReinsert bool

	Mem   mem.Config
	Bpred bpred.Config

	WIB *WIBConfig

	// Debug enables per-cycle structural invariant checking (register
	// free-list consistency, queue occupancy accounting, block-pool
	// conservation). Slow; used by the test suite. Debug also disables
	// idle-cycle fast-forwarding so the checker observes every cycle.
	Debug bool

	// NoFastForward disables idle-cycle fast-forwarding: the simulator
	// executes every cycle individually even when the pipeline provably
	// cannot do work until a scheduled event. Statistics are bit-identical
	// either way (the equivalence test enforces it); the flag exists for
	// debugging and for that test.
	NoFastForward bool

	// DeadlockCycles is the forward-progress watchdog threshold: a run
	// aborts with a structured deadlock report when no instruction commits
	// for this many cycles while work is in flight. 0 selects the default
	// (1M cycles); negative disables the watchdog entirely.
	DeadlockCycles int64

	// LockstepOracle steps the functional emulator alongside commit and
	// cross-checks every committed PC and destination value. Slow; used by
	// the test suite and the fault-injection campaign.
	LockstepOracle bool

	// TraceCapacity, when positive, records the lifecycle of the last N
	// instructions (fetch/dispatch/issue/complete/commit cycles and WIB
	// trips), retrievable via Processor.Traces.
	TraceCapacity int
}

// DefaultConfig returns the paper's base machine: 32-entry issue queues,
// 128-entry active list, 128+128 single-cycle registers (Table 1).
func DefaultConfig() Config {
	return Config{
		Name:        "32-IQ/128",
		FetchWidth:  8,
		DecodeWidth: 8,
		CommitWidth: 8,
		IFQSize:     8,
		IntIQSize:   32,
		FPIQSize:    32,
		IssueInt:    8,
		IssueFP:     4,
		ActiveList:  128,
		IntRegs:     128,
		FPRegs:      128,
		LoadQueue:   64,
		StoreQueue:  64,

		NumIntALU:  8,
		NumIntMult: 2,
		NumFPAdd:   4,
		NumFPMult:  2,
		NumFPDiv:   2,
		NumFPSqrt:  2,

		LatIntALU:  1,
		LatIntMult: 7,
		LatFPAdd:   4,
		LatFPMult:  4,
		LatFPDiv:   12,
		LatFPSqrt:  24,

		MispredictPenalty: 9,
		MisfetchPenalty:   2,

		StoreWaitEntries:       2048,
		StoreWaitClearInterval: 32768,

		RegFile: RFSingle,

		Mem:   mem.DefaultConfig(),
		Bpred: bpred.DefaultConfig(),
	}
}

// ScaledConfig returns a conventional configuration with the given issue
// queue and active list sizes, following the paper's limit-study rules
// (§2.2.2): registers scale with the active list, load/store queues are
// half the active list, and the register file stays single-cycle.
func ScaledConfig(iqSize, activeList int) Config {
	cfg := DefaultConfig()
	cfg.Name = fmt.Sprintf("%d-IQ/%d", iqSize, activeList)
	cfg.IntIQSize = iqSize
	cfg.FPIQSize = iqSize
	cfg.ActiveList = activeList
	cfg.IntRegs = activeList
	cfg.FPRegs = activeList
	cfg.LoadQueue = activeList / 2
	cfg.StoreQueue = activeList / 2
	return cfg
}

// WIBDefault returns the paper's principal WIB machine: the base 32-entry
// issue queues, a 2K-entry banked WIB with a 2K active list, 2K registers
// in a two-level file (128 L1, 4R/4W ports, 4-cycle L2), and 1K-entry
// load/store queues.
func WIBDefault() Config {
	return WIBConfigSized(2048, 0)
}

// WIBConfigSized returns a WIB machine with the given WIB/active-list
// capacity and bit-vector limit (0 = unlimited).
func WIBConfigSized(entries, bitVectors int) Config {
	cfg := DefaultConfig()
	cfg.Name = fmt.Sprintf("WIB/%d", entries)
	if bitVectors > 0 {
		cfg.Name = fmt.Sprintf("WIB/%d-bv%d", entries, bitVectors)
	}
	cfg.ActiveList = entries
	cfg.IntRegs = entries
	cfg.FPRegs = entries
	cfg.LoadQueue = entries / 2
	cfg.StoreQueue = entries / 2
	cfg.RegFile = RFTwoLevel
	cfg.RFL1Capacity = 128
	cfg.RFReadPorts = 4
	cfg.RFL2Latency = 4
	cfg.WIB = &WIBConfig{
		Entries:    entries,
		BitVectors: bitVectors,
		Banked:     true,
		Banks:      2 * cfg.DecodeWidth,
		Policy:     PolicyBanked,
	}
	return cfg
}

// WIBPoolOfBlocks returns a machine using the §3.5 pool-of-blocks WIB
// organization: `blocks` blocks of `blockSlots` instruction slots shared
// by all outstanding misses, reinserted in deposit order.
func WIBPoolOfBlocks(entries, blocks, blockSlots int) Config {
	cfg := WIBConfigSized(entries, 0)
	cfg.Name = fmt.Sprintf("WIB-pool/%dx%d", blocks, blockSlots)
	cfg.WIB.Org = OrgPoolOfBlocks
	cfg.WIB.Banked = false
	cfg.WIB.Blocks = blocks
	cfg.WIB.BlockSlots = blockSlots
	return cfg
}

// WIBWithSliceCore returns the principal WIB machine augmented with a
// slice execution core of the given width (§6 future work).
func WIBWithSliceCore(entries, width int) Config {
	cfg := WIBConfigSized(entries, 0)
	cfg.Name = fmt.Sprintf("WIB-slice%d/%d", width, entries)
	cfg.WIB.Banked = false
	cfg.WIB.Policy = PolicyProgramOrder
	cfg.WIB.SliceWidth = width
	return cfg
}

// WIBMultiBankedRF returns the WIB machine with the multi-banked
// register-file alternative instead of the two-level file (§3.4).
func WIBMultiBankedRF(entries, banks, ports int) Config {
	cfg := WIBConfigSized(entries, 0)
	cfg.Name = fmt.Sprintf("WIB-mbrf%dx%d/%d", banks, ports, entries)
	cfg.RegFile = RFMultiBanked
	cfg.RFBanks = banks
	cfg.RFBankPorts = ports
	return cfg
}

// Validate reports configuration inconsistencies.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.DecodeWidth <= 0 || c.CommitWidth <= 0 {
		return fmt.Errorf("core: %s: non-positive widths", c.Name)
	}
	if c.ActiveList <= 0 || c.IntIQSize <= 0 || c.FPIQSize <= 0 {
		return fmt.Errorf("core: %s: non-positive structure sizes", c.Name)
	}
	if c.IntRegs < 34 || c.FPRegs < 34 {
		return fmt.Errorf("core: %s: too few physical registers (need arch+2)", c.Name)
	}
	if c.LoadQueue <= 0 || c.StoreQueue <= 0 {
		return fmt.Errorf("core: %s: non-positive LSQ sizes", c.Name)
	}
	// A zero below is not a slow machine but one that never fetches or
	// never issues some class: it would run into the deadlock watchdog.
	if c.IFQSize <= 0 || c.IssueInt <= 0 || c.IssueFP <= 0 {
		return fmt.Errorf("core: %s: non-positive fetch queue or issue widths", c.Name)
	}
	if min(c.NumIntALU, c.NumIntMult, c.NumFPAdd, c.NumFPMult, c.NumFPDiv, c.NumFPSqrt) <= 0 {
		return fmt.Errorf("core: %s: non-positive functional-unit counts", c.Name)
	}
	if c.StoreWaitEntries <= 0 || c.StoreWaitEntries&(c.StoreWaitEntries-1) != 0 {
		return fmt.Errorf("core: %s: store-wait entries (%d) must be a positive power of two", c.Name, c.StoreWaitEntries)
	}
	if err := c.Mem.Validate(); err != nil {
		return fmt.Errorf("core: %s: %w", c.Name, err)
	}
	if err := c.Bpred.Validate(); err != nil {
		return fmt.Errorf("core: %s: %w", c.Name, err)
	}
	if c.WIB != nil {
		w := c.WIB
		if w.Entries != c.ActiveList {
			return fmt.Errorf("core: %s: WIB entries (%d) must equal active list (%d)", c.Name, w.Entries, c.ActiveList)
		}
		if w.Banked && (w.Banks <= 0 || w.Entries%w.Banks != 0) {
			return fmt.Errorf("core: %s: WIB banks (%d) must divide entries (%d)", c.Name, w.Banks, w.Entries)
		}
		if !w.Banked && w.AccessLatency < 0 {
			return fmt.Errorf("core: %s: negative WIB access latency", c.Name)
		}
	}
	if c.RegFile == RFTwoLevel && (c.RFL1Capacity <= 0 || c.RFReadPorts <= 0) {
		return fmt.Errorf("core: %s: two-level register file needs capacity and ports", c.Name)
	}
	if c.RegFile == RFMultiBanked && (c.RFBanks <= 0 || c.RFBankPorts <= 0) {
		return fmt.Errorf("core: %s: multi-banked register file needs banks and ports", c.Name)
	}
	if c.WIB != nil && c.WIB.SliceWidth < 0 {
		return fmt.Errorf("core: %s: negative slice width", c.Name)
	}
	return nil
}

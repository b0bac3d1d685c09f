package emu

import "largewindow/internal/isa"

// ProfileSink receives the per-instruction execution stream of a
// profiling pass (RunProfile). It extends the warm-sink idea with the
// one thing warm sinks cannot carry: which static instruction produced
// each dynamic event, so a profiler can join the stream against its own
// predecoded operand table for dependence analysis. Callbacks fire in
// program order: Instr for every retired instruction, then Mem/Branch
// for its data access or control transfer, if any.
type ProfileSink interface {
	// Instr is called once per retired instruction with its static index.
	Instr(pc uint64, class isa.Class)
	// Mem is called for loads and stores with the effective byte address.
	Mem(pc, addr uint64, store bool)
	// Branch is called for every control transfer with its architectural
	// outcome, flagged exactly like the warm stream (Cond for conditional
	// branches, BTB for transfers that train the BTB at commit).
	Branch(b WarmBranch)
}

// RunProfile executes up to maxInstr instructions on the fast interpreter
// (see predecode.go), streaming every instruction into the sink. It is
// the event source of the mechanistic interval model's one-pass profile
// collector (internal/model): one functional execution yields the
// instruction mix, the address stream for stat-counting warm caches,
// and the operand-resolved dependence information for MLP and ILP
// analysis. Semantics and return convention match Run.
func (m *Machine) RunProfile(maxInstr uint64, sink ProfileSink) (uint64, error) {
	return m.run(maxInstr, nil, sink)
}

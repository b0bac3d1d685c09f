// Package emu implements a functional (architectural) emulator for the
// micro-RISC ISA. It executes programs instantaneously — no timing — and
// serves as the golden model: the out-of-order pipeline in internal/core
// must commit exactly the state the emulator computes, and tests assert
// this for every workload kernel and every processor configuration.
package emu

import (
	"errors"
	"fmt"

	"largewindow/internal/isa"
)

// ErrNotHalted is returned by Run when the instruction budget is exhausted
// before the program executes Halt.
var ErrNotHalted = errors.New("emu: instruction budget exhausted before halt")

// Machine is the architectural state of one running program.
type Machine struct {
	Prog *isa.Program
	Mem  *isa.Memory
	archState
}

// archState is everything a machine's execution state holds besides its
// program and memory image. A Checkpoint embeds the same struct, so
// taking one and restoring from one each copy it as a single value.
type archState struct {
	IntReg [isa.NumRegs]uint64
	FPReg  [isa.NumRegs]uint64
	PC     uint64
	Halted bool

	// Statistics.
	InstrCount uint64
	ClassMix   [isa.NumClasses]uint64
	TakenCond  uint64
	CondCount  uint64

	// StreamHash accumulates a hash of the committed PC stream. Two
	// executions that retire the same dynamic instruction sequence have
	// equal hashes; the pipeline's committed stream is checked against it.
	StreamHash uint64
}

// New creates a machine at the program's entry point with its initial
// memory image loaded, SP at StackTop and GP at DataBase.
func New(p *isa.Program) *Machine {
	m := &Machine{Prog: p, Mem: p.NewMemoryImage()}
	m.PC = p.Entry
	m.IntReg[isa.SP] = p.StackTop
	m.IntReg[isa.GP] = p.DataBase
	return m
}

// Step executes one instruction. It returns an error on a PC outside the
// code segment; a Halted machine steps to itself without effect.
func (m *Machine) Step() error {
	if m.Halted {
		return nil
	}
	if m.PC >= uint64(len(m.Prog.Code)) {
		return fmt.Errorf("emu: pc %d outside code segment (len %d)", m.PC, len(m.Prog.Code))
	}
	in := m.Prog.Code[m.PC]
	m.InstrCount++
	m.ClassMix[in.Op.Class()]++
	m.StreamHash = mixHash(m.StreamHash, m.PC)

	rs1 := m.readSrc(in.Src1())
	rs2 := m.readSrc(in.Src2())
	next := m.PC + 1

	switch in.Op.Class() {
	case isa.ClassLoad:
		m.writeDest(in.Dest(), m.Mem.ReadWord(isa.EffAddr(in, rs1)))
	case isa.ClassStore:
		m.Mem.WriteWord(isa.EffAddr(in, rs1), rs2)
	case isa.ClassBranch:
		m.CondCount++
		if isa.BranchTaken(in, rs1, rs2) {
			m.TakenCond++
			next = in.Target(m.PC)
		}
	case isa.ClassJump:
		switch in.Op {
		case isa.OpJr:
			next = rs1
		case isa.OpJal:
			m.writeDest(in.Dest(), isa.Eval(in, rs1, rs2, m.PC))
			next = in.Target(m.PC)
		default: // OpJ
			next = in.Target(m.PC)
		}
	case isa.ClassHalt:
		m.Halted = true
		return nil
	case isa.ClassNop:
		// nothing
	default:
		m.writeDest(in.Dest(), isa.Eval(in, rs1, rs2, m.PC))
	}
	m.PC = next
	return nil
}

// Run executes until Halt or until maxInstr instructions have executed.
// It returns the number of instructions executed. If the budget expires
// first, the error is ErrNotHalted (wrapped errors.Is-compatible).
//
// Run executes on the fast interpreter (see predecode.go); it is
// architecturally identical to a Step loop, which tests enforce.
func (m *Machine) Run(maxInstr uint64) (uint64, error) {
	return m.run(maxInstr, nil, nil)
}

// RunSink is Run with live warm streaming: every executed access
// (instruction-fetch lines, data addresses, branch outcomes) is fed
// directly into the sink as it happens, with no ring bound. Feeding a
// timing core's cache hierarchy and branch predictor this way keeps them
// functionally warm with the program's FULL access history — sampled
// simulation uses it between measured intervals, where the bounded tail
// a WarmLog retains is not enough to reconverge large caches. A *WarmLog
// is a sink too (its rings keep that tail); a nil one captures nothing.
func (m *Machine) RunSink(maxInstr uint64, sink WarmSink) (uint64, error) {
	return m.run(maxInstr, sink, nil)
}

func (m *Machine) readSrc(r isa.RegRef) uint64 {
	if !r.Valid {
		return 0
	}
	if r.FP {
		return m.FPReg[r.N]
	}
	if r.N == isa.Zero {
		return 0
	}
	return m.IntReg[r.N]
}

func (m *Machine) writeDest(r isa.RegRef, v uint64) {
	if !r.Valid {
		return
	}
	if r.FP {
		m.FPReg[r.N] = v
		return
	}
	if r.N == isa.Zero {
		return
	}
	m.IntReg[r.N] = v
}

// State is a comparable snapshot of architectural state, used by golden-
// model tests to check pipeline-vs-emulator equivalence.
type State struct {
	IntReg      [isa.NumRegs]uint64
	FPReg       [isa.NumRegs]uint64
	MemChecksum uint64
	InstrCount  uint64
	StreamHash  uint64
	Halted      bool
}

// Snapshot captures the machine's architectural state.
func (m *Machine) Snapshot() State {
	return State{
		IntReg:      m.IntReg,
		FPReg:       m.FPReg,
		MemChecksum: m.Mem.Checksum(),
		InstrCount:  m.InstrCount,
		StreamHash:  m.StreamHash,
		Halted:      m.Halted,
	}
}

// mixHash folds v into h with a strong 64-bit mixer (splitmix64 finalizer).
func mixHash(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h
}

// MixHash is exported for components (the pipeline's commit stage) that
// must reproduce the emulator's stream hash.
func MixHash(h, v uint64) uint64 { return mixHash(h, v) }

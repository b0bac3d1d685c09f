package emu

import (
	"fmt"

	"largewindow/internal/isa"
)

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

// RunProfile executes up to maxInstr instructions on the predecoded fast
// path, streaming every instruction into the sink. It is the event
// source of the mechanistic interval model's one-pass profile collector
// (internal/model): one functional execution yields the instruction mix,
// the address stream for stat-counting warm caches, and the operand-
// resolved dependence information for MLP and ILP analysis. Semantics
// and return convention match Run.
func (m *Machine) RunProfile(maxInstr uint64, sink ProfileSink) (uint64, error) {
	dec := m.Prog.Decoded()
	code := m.Prog.Code
	var classCnt [isa.NumClasses]uint64
	pc := m.PC
	hash := m.StreamHash
	takenCond, condCount := m.TakenCond, m.CondCount
	var count uint64

	flush := func() {
		m.PC = pc
		m.StreamHash = hash
		m.TakenCond, m.CondCount = takenCond, condCount
		m.InstrCount += count
		for c, n := range classCnt {
			if n > 0 {
				m.ClassMix[isa.Class(c)] += n
			}
		}
	}

	for !m.Halted && count < maxInstr {
		if pc >= uint64(len(dec)) {
			flush()
			return count, fmt.Errorf("emu: pc %d outside code segment (len %d)", pc, len(dec))
		}
		d := &dec[pc]
		count++
		classCnt[d.Class]++
		hash = mixHash(hash, pc)
		sink.Instr(pc, d.Class)

		var rs1, rs2 uint64
		if r := d.Src1; r.Valid {
			if r.FP {
				rs1 = m.FPReg[r.N]
			} else if r.N != isa.Zero {
				rs1 = m.IntReg[r.N]
			}
		}
		if r := d.Src2; r.Valid {
			if r.FP {
				rs2 = m.FPReg[r.N]
			} else if r.N != isa.Zero {
				rs2 = m.IntReg[r.N]
			}
		}
		next := pc + 1

		switch d.Class {
		case isa.ClassLoad:
			addr := isa.EffAddr(code[pc], rs1)
			m.writeDest(d.Dest, m.Mem.ReadWord(addr))
			sink.Mem(pc, addr, false)
		case isa.ClassStore:
			addr := isa.EffAddr(code[pc], rs1)
			m.Mem.WriteWord(addr, rs2)
			sink.Mem(pc, addr, true)
		case isa.ClassBranch:
			condCount++
			taken := isa.BranchTaken(code[pc], rs1, rs2)
			if taken {
				takenCond++
				next = d.Target
			}
			sink.Branch(WarmBranch{PC: pc, Target: d.Target, Taken: taken, Cond: true, BTB: taken})
		case isa.ClassJump:
			switch d.Op {
			case isa.OpJr:
				next = rs1
				sink.Branch(WarmBranch{PC: pc, Target: rs1, Taken: true})
			case isa.OpJal:
				m.writeDest(d.Dest, isa.Eval(code[pc], rs1, rs2, pc))
				next = d.Target
				sink.Branch(WarmBranch{PC: pc, Target: d.Target, Taken: true, BTB: true})
			default: // OpJ
				next = d.Target
				sink.Branch(WarmBranch{PC: pc, Target: d.Target, Taken: true, BTB: true})
			}
		case isa.ClassHalt:
			m.Halted = true
			flush()
			return count, nil
		case isa.ClassNop:
			// nothing
		default:
			m.writeDest(d.Dest, isa.Eval(code[pc], rs1, rs2, pc))
		}
		pc = next
	}
	flush()
	if !m.Halted {
		return count, ErrNotHalted
	}
	return count, nil
}

package emu

import (
	"fmt"

	"largewindow/internal/isa"
)

// run is the predecoded hot loop behind Run: identical architectural
// semantics to a Step loop (the equivalence is property-tested), but with
// the per-step class/operand re-derivation and the ClassMix map increment
// hoisted out. Hot state (PC, stream hash, class counts) lives in locals —
// no closure captures them, so they stay in registers — and is written
// back to the Machine once, after the loop.
//
// When warm is non-nil the loop also feeds the access stream —
// instruction-fetch lines, data addresses, and branch outcomes — into the
// sink in program order. A WarmLog (checkpoint capture) is recognised
// before the loop and recorded with direct ring stores; any other sink (a
// live cache-hierarchy adapter for full-history functional warming) is
// called through the interface.
func (m *Machine) run(maxInstr uint64, warm WarmSink) (uint64, error) {
	dec := m.Prog.Decoded()
	code := m.Prog.Code
	log, _ := warm.(*WarmLog)
	var classCnt [isa.NumClasses]uint64
	pc := m.PC
	hash := m.StreamHash
	takenCond, condCount := m.TakenCond, m.CondCount
	var count uint64
	lastFetchLine := ^uint64(0)
	var err error

loop:
	for !m.Halted && count < maxInstr {
		if pc >= uint64(len(dec)) {
			err = fmt.Errorf("emu: pc %d outside code segment (len %d)", pc, len(dec))
			break
		}
		d := &dec[pc]
		count++
		classCnt[d.Class]++
		hash = mixHash(hash, pc)
		if warm != nil {
			if line := (pc * 8) &^ 63; line != lastFetchLine {
				if log != nil {
					log.fetch.push(line)
				} else {
					warm.WarmFetch(line)
				}
				lastFetchLine = line
			}
		}

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

		var brFlags, brTarget uint64 // brFlags != 0: a control transfer to report
		switch d.Class {
		case isa.ClassLoad:
			addr := isa.EffAddr(code[pc], rs1)
			m.writeDest(d.Dest, m.Mem.ReadWord(addr))
			if log != nil {
				log.mem.push(addr << 1)
			} else if warm != nil {
				warm.WarmLoad(addr)
			}
		case isa.ClassStore:
			addr := isa.EffAddr(code[pc], rs1)
			m.Mem.WriteWord(addr, rs2)
			if log != nil {
				log.mem.push(addr<<1 | 1)
			} else if warm != nil {
				warm.WarmStore(addr)
			}
		case isa.ClassBranch:
			condCount++
			brFlags, brTarget = brCond, d.Target
			if isa.BranchTaken(code[pc], rs1, rs2) {
				takenCond++
				next = d.Target
				brFlags = brCond | brTaken | brBTB
			}
		case isa.ClassJump:
			switch d.Op {
			case isa.OpJr:
				next = rs1
				brFlags, brTarget = brTaken, rs1
			case isa.OpJal:
				m.writeDest(d.Dest, isa.Eval(code[pc], rs1, rs2, pc))
				fallthrough
			default: // OpJ
				next = d.Target
				brFlags, brTarget = brTaken|brBTB, d.Target
			}
		case isa.ClassHalt:
			m.Halted = true
			break loop
		case isa.ClassNop:
			// nothing
		default:
			m.writeDest(d.Dest, isa.Eval(code[pc], rs1, rs2, pc))
		}
		if brFlags != 0 {
			br := branchRec{pc: pc, target: brTarget, flags: brFlags}
			if log != nil {
				log.branch.push(br)
			} else if warm != nil {
				warm.WarmBranch(br.unpack())
			}
		}
		pc = next
	}

	m.PC = pc
	m.StreamHash = hash
	m.TakenCond, m.CondCount = takenCond, condCount
	m.InstrCount += count
	for c, n := range classCnt {
		if n > 0 {
			m.ClassMix[isa.Class(c)] += n
		}
	}
	if err == nil && !m.Halted {
		err = ErrNotHalted
	}
	return count, err
}

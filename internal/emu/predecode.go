package emu

import (
	"fmt"
	"math"

	"largewindow/internal/isa"
)

// sinkKind says where run reports the executed stream. It is resolved
// once, before the loop, so the loop's event sites branch on a loop
// invariant instead of on interface values.
type sinkKind uint8

const (
	sinkNone    sinkKind = iota
	sinkLog              // *WarmLog: direct ring stores (checkpoint capture)
	sinkWarm             // any other WarmSink, through the interface
	sinkProfile          // a ProfileSink
)

// sinks is where one run reports to, and the last instruction line it
// reported. It is more than four words on purpose: the compiler keeps a
// struct that size in memory, so the loop reloads a field where it needs
// one and these loop invariants do not compete with the stream hash and
// the operands for registers.
type sinks struct {
	kind     sinkKind
	log      *WarmLog
	warm     WarmSink
	prof     ProfileSink
	lastLine uint64
}

// run is the fast interpreter behind Run, RunSink and RunProfile:
// identical architectural semantics to a Step loop (FuzzRunMatchesStep
// holds it to that over every opcode), reached differently. Operands are
// read from one register array through the slots the shared decode table
// resolved (isa.Decoded.S1/S2/D), so there is no Valid/FP/Zero test per
// operand, and one switch on the opcode dispatches straight to the
// operation; only the rare arms go through isa.Eval. Hot state (PC,
// stream hash, class counts, the registers) lives in locals — no closure
// captures them — and is written back to the Machine once, after the loop.
//
// At most one of warm and prof is non-nil. A warm sink is fed the access
// stream — instruction-fetch lines, data addresses, branch outcomes — in
// program order; a *WarmLog is recognised here and recorded with direct
// ring stores, a nil one means no sink. A profile sink is fed every
// instruction, then its data access or control transfer.
func (m *Machine) run(maxInstr uint64, warm WarmSink, prof ProfileSink) (uint64, error) {
	if m.Halted {
		return 0, nil
	}
	sk := sinks{warm: warm, prof: prof, lastLine: ^uint64(0)}
	log, isLog := warm.(*WarmLog)
	switch {
	case prof != nil:
		sk.kind = sinkProfile
	case log != nil:
		sk.kind, sk.log = sinkLog, log
	case warm != nil && !isLog:
		sk.kind = sinkWarm
	}

	// regs holds isa.SlotSink+1 registers and classCnt isa.NumClasses
	// counts; both are sized to the uint8 that indexes them, so the loop
	// carries no bounds checks. The counters are arrays so that they live
	// in memory, not in the registers the hash chain and the operands
	// need: conds[1] counts taken conditional branches, conds[0] the rest.
	var regs [256]uint64
	var classCnt [256]uint64
	var conds [2]uint64
	var err error
	copy(classCnt[:], m.ClassMix[:])
	copy(regs[:isa.SlotFP], m.IntReg[:])
	copy(regs[isa.SlotFP:isa.SlotSink], m.FPReg[:])
	regs[isa.Zero] = 0 // reads as zero whatever IntReg[0] holds
	dec := m.Prog.Decoded()
	mem := m.Mem
	left := maxInstr
	pc := m.PC
	hash := m.StreamHash

loop:
	for ; left > 0; left-- {
		if pc >= uint64(len(dec)) {
			err = fmt.Errorf("emu: pc %d outside code segment (len %d)", pc, len(dec))
			break
		}
		d := &dec[pc]
		classCnt[d.Class]++
		hash = mixHash(hash, pc)
		switch sk.kind {
		case sinkNone:
		case sinkProfile:
			sk.prof.Instr(pc, d.Class)
		default:
			if line := (pc * 8) &^ 63; line != sk.lastLine {
				if sk.kind == sinkLog {
					sk.log.fetch.push(line)
				} else {
					sk.warm.WarmFetch(line)
				}
				sk.lastLine = line
			}
		}

		a, b := regs[d.S1], regs[d.S2]
		next := pc + 1

		switch d.Op {
		case isa.OpAdd:
			regs[d.D] = a + b
		case isa.OpSub:
			regs[d.D] = a - b
		case isa.OpMul:
			regs[d.D] = uint64(int64(a) * int64(b))
		case isa.OpAnd:
			regs[d.D] = a & b
		case isa.OpOr:
			regs[d.D] = a | b
		case isa.OpXor:
			regs[d.D] = a ^ b
		case isa.OpSll:
			regs[d.D] = a << (b & 63)
		case isa.OpSrl:
			regs[d.D] = a >> (b & 63)
		case isa.OpSra:
			regs[d.D] = uint64(int64(a) >> (b & 63))
		case isa.OpSlt:
			regs[d.D] = b2u(int64(a) < int64(b))
		case isa.OpSltu:
			regs[d.D] = b2u(a < b)
		case isa.OpAddi:
			regs[d.D] = a + d.Imm
		case isa.OpAndi:
			regs[d.D] = a & d.Imm
		case isa.OpOri:
			regs[d.D] = a | d.Imm
		case isa.OpXori:
			regs[d.D] = a ^ d.Imm
		case isa.OpSlli:
			regs[d.D] = a << (d.Imm & 63)
		case isa.OpSrli:
			regs[d.D] = a >> (d.Imm & 63)
		case isa.OpSrai:
			regs[d.D] = uint64(int64(a) >> (d.Imm & 63))
		case isa.OpSlti:
			regs[d.D] = b2u(int64(a) < int64(d.Imm))
		case isa.OpLi:
			regs[d.D] = d.Imm
		case isa.OpLih:
			regs[d.D] = a | d.Imm<<32
		case isa.OpFadd:
			regs[d.D] = isa.F2U(isa.U2F(a) + isa.U2F(b))
		case isa.OpFsub:
			regs[d.D] = isa.F2U(isa.U2F(a) - isa.U2F(b))
		case isa.OpFmul:
			regs[d.D] = isa.F2U(isa.U2F(a) * isa.U2F(b))
		case isa.OpFneg:
			regs[d.D] = isa.F2U(-isa.U2F(a))
		case isa.OpFabs:
			regs[d.D] = isa.F2U(math.Abs(isa.U2F(a)))
		case isa.OpFmov:
			regs[d.D] = a
		case isa.OpDiv, isa.OpRem, isa.OpFdiv, isa.OpFsqrt, isa.OpFcvt, isa.OpFcvti,
			isa.OpFlt, isa.OpFle, isa.OpFeq:
			regs[d.D] = isa.Eval(m.Prog.Code[pc], a, b, pc)

		case isa.OpLd, isa.OpFld:
			addr := a + d.Imm
			regs[d.D] = mem.ReadWord(addr)
			switch sk.kind {
			case sinkLog:
				sk.log.mem.push(addr << 1)
			case sinkWarm:
				sk.warm.WarmLoad(addr)
			case sinkProfile:
				sk.prof.Mem(pc, addr, false)
			}
		case isa.OpSt, isa.OpFst:
			addr := a + d.Imm
			mem.WriteWord(addr, b)
			switch sk.kind {
			case sinkLog:
				sk.log.mem.push(addr<<1 | 1)
			case sinkWarm:
				sk.warm.WarmStore(addr)
			case sinkProfile:
				sk.prof.Mem(pc, addr, true)
			}

		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
			var taken bool
			switch d.Op {
			case isa.OpBeq:
				taken = a == b
			case isa.OpBne:
				taken = a != b
			case isa.OpBlt:
				taken = int64(a) < int64(b)
			default:
				taken = int64(a) >= int64(b)
			}
			flags := uint64(brCond)
			if taken {
				next = d.Target
				flags = brCond | brTaken | brBTB
			}
			conds[flags&brTaken]++
			if sk.kind != sinkNone {
				sk.branch(branchRec{pc: pc, target: d.Target, flags: flags})
			}
		case isa.OpJal:
			regs[d.D] = pc + 1
			fallthrough
		case isa.OpJ:
			next = d.Target
			if sk.kind != sinkNone {
				sk.branch(branchRec{pc: pc, target: d.Target, flags: brTaken | brBTB})
			}
		case isa.OpJr:
			next = a
			if sk.kind != sinkNone {
				sk.branch(branchRec{pc: pc, target: a, flags: brTaken})
			}

		case isa.OpHalt:
			m.Halted = true
			left--
			break loop
		}
		pc = next
	}

	count := maxInstr - left
	m.PC = pc
	m.StreamHash = hash
	m.TakenCond += conds[1]
	m.CondCount += conds[0] + conds[1]
	m.InstrCount += count
	copy(m.IntReg[1:], regs[1:isa.SlotFP])
	copy(m.FPReg[:], regs[isa.SlotFP:isa.SlotSink])
	copy(m.ClassMix[:], classCnt[:])
	if err == nil && !m.Halted {
		err = ErrNotHalted
	}
	return count, err
}

// branch hands one control transfer to whichever sink the run has.
func (s *sinks) branch(br branchRec) {
	switch s.kind {
	case sinkLog:
		s.log.branch.push(br)
	case sinkWarm:
		s.warm.WarmBranch(br.unpack())
	case sinkProfile:
		s.prof.Branch(br.unpack())
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

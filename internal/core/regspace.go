package core

import (
	"largewindow/internal/isa"
	"largewindow/internal/regfile"
)

// physReg is one physical register: its value, readiness, and the WIB
// wait bit with its bit-vector index (§3.2). colGen guards against the
// bit-vector being freed and reused while the wait bit is still set (the
// producer has been reinserted but has not executed yet). col is read only
// under wait.
type physReg struct {
	value   uint64
	ready   bool
	wait    bool
	free    bool // on a free list (double-free detection)
	col     int32
	colGen  uint64
	waiters []waiter
}

// clearWait is the one way a wait bit goes away: the producer left the WIB
// (consumers synchronize on the true ready bit again), wrote its result,
// or gave the register back.
func (r *physReg) clearWait() { r.wait, r.col = false, -1 }

// regSpace is one register class: the physical registers, the speculative
// and retirement rename maps, the free list, and the register-file timing
// model. The machine has two, integer and floating point, alike in
// everything but which operands name them.
type regSpace struct {
	fp   bool // names the space in diagnostics
	pr   []physReg
	spec [isa.NumRegs]int32 // speculative map, rolled back at squash
	// ret tracks the committed architectural mapping, so the final register
	// state can be extracted for golden-model comparison.
	ret  [isa.NumRegs]int32
	free []int32
	rf   regfile.Model
}

// newRegSpace builds a space of n physical registers: architectural
// registers map to physical 0..31, the rest are free.
func newRegSpace(cfg Config, n int, fp bool) regSpace {
	s := regSpace{fp: fp, pr: make([]physReg, n), free: make([]int32, 0, n)}
	switch cfg.RegFile {
	case RFTwoLevel:
		s.rf = regfile.NewTwoLevel(n, cfg.RFL1Capacity, cfg.RFReadPorts, cfg.RFL2Latency)
	case RFMultiBanked:
		s.rf = regfile.NewMultiBanked(cfg.RFBanks, cfg.RFBankPorts)
	default:
		s.rf = regfile.SingleLevel{}
	}
	for a := range s.spec {
		s.spec[a], s.ret[a] = int32(a), int32(a)
		s.pr[a].ready = true
	}
	for r := isa.NumRegs; r < n; r++ {
		s.free = append(s.free, int32(r))
		s.pr[r].free = true
	}
	return s
}

// rename claims a free register as the new speculative mapping of arch and
// returns it with the mapping it displaced. The caller has checked that
// the free list is not empty (dispatchStalled).
func (s *regSpace) rename(arch isa.Reg) (newPhys, oldPhys int32) {
	newPhys = s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	oldPhys = s.spec[arch]
	s.spec[arch] = newPhys
	r := &s.pr[newPhys]
	*r = physReg{waiters: r.waiters[:0], col: -1}
	return newPhys, oldPhys
}

// release returns a physical register to the free list.
func (s *regSpace) release(idx int32) {
	r := &s.pr[idx]
	if r.free {
		throw(KindRegDoubleFree, 0, "phys reg %d (fp=%v) freed twice", idx, s.fp)
	}
	r.free = true
	r.ready = false
	r.clearWait()
	r.waiters = r.waiters[:0]
	s.free = append(s.free, idx)
}

// arch returns the speculative value cell of architectural register a;
// committed reads its committed value.
func (s *regSpace) arch(a int) *physReg    { return &s.pr[s.spec[a]] }
func (s *regSpace) committed(a int) uint64 { return s.pr[s.ret[a]].value }

// check verifies (Debug runs) that no register is on the free list twice,
// and that none on it is architecturally mapped or allocated in flight.
func (s *regSpace) check(p *Processor) {
	seen := make([]uint8, len(s.pr))
	for _, r := range s.free {
		if seen[r] != 0 {
			throw(KindFreeListDouble, 0, "phys reg %d (fp=%v) on the free list twice", r, s.fp)
		}
		seen[r] = 1
	}
	for a, r := range s.spec {
		if seen[r] == 1 {
			throw(KindMapToFree, 0, "arch %d maps to FREE phys %d (fp=%v)", a, r, s.fp)
		}
	}
	size := int32(len(p.rob))
	for i := int32(0); i < p.robCount; i++ {
		e := &p.rob[(p.robHead+i)%size]
		if e.newPhys != noReg && e.destFP == s.fp && seen[e.newPhys] == 1 {
			throw(KindInFlightFree, e.seq, "in-flight dest phys %d (fp=%v, seq %d) is on the free list", e.newPhys, s.fp, e.seq)
		}
	}
}

package model

import (
	"errors"
	"fmt"

	"largewindow/internal/bpred"
	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/mem"
)

// This file keeps the profiler as it stood before it read the shared
// decode table: its own per-program operand table of isa.RegRef values,
// two register banks resolved per operand, and a hand-written latency
// table. It is the differential oracle of TestCollectMatchesOracle and
// FuzzCollectMatchesOracle; identifiers carry an oracle prefix, the code
// is otherwise as it was.

// oracleClassLat is the dataflow latency each instruction class
// contributes to a dependency chain: the paper's Table 1 FU latencies,
// with loads at the L1 hit latency (long misses are modeled separately by
// the serialized-miss term, not the ILP ladder).
var oracleClassLat = [isa.NumClasses]int64{
	isa.ClassIntALU: 1, isa.ClassIntMult: 7,
	isa.ClassFPAdd: 4, isa.ClassFPMult: 4, isa.ClassFPDiv: 12, isa.ClassFPSqrt: 24,
	isa.ClassLoad: 2, isa.ClassStore: 1,
	isa.ClassBranch: 1, isa.ClassJump: 1,
}

// oracleOpInfo is the collector's predecoded operand view of one static
// instruction.
type oracleOpInfo struct {
	src1, src2, dest isa.RegRef
	lat              int64
}

// oracleMissRec records one long load miss: its dynamic position and the
// position of the older long miss its address depends on (-1 if its
// address is miss-independent).
type oracleMissRec struct {
	pos, dep int64
}

// oracleLadder accumulates the critical-dependency-chain length of one
// window size, register depths stamped with the chunk that wrote them.
type oracleLadder struct {
	w          int64
	chunkStart int64
	chunk      int64
	chunkMax   int64
	sumCrit    int64
	depth      [2][isa.NumRegs]int64
	stamp      [2][isa.NumRegs]int64
}

func (l *oracleLadder) depthOf(r isa.RegRef) int64 {
	if !r.Valid {
		return 0
	}
	b := 0
	if r.FP {
		b = 1
	}
	if l.stamp[b][r.N] != l.chunk {
		return 0
	}
	return l.depth[b][r.N]
}

func (l *oracleLadder) setDepth(r isa.RegRef, d int64) {
	if !r.Valid {
		return
	}
	b := 0
	if r.FP {
		b = 1
	}
	l.depth[b][r.N] = d
	l.stamp[b][r.N] = l.chunk
}

// oracleCollector implements emu.ProfileSink over its own operand table.
type oracleCollector struct {
	ops []oracleOpInfo
	h   *mem.Hierarchy
	bp  *bpred.Predictor

	pos           int64
	lastFetchLine uint64

	// taint[bank][reg] is the position of the most recent long load miss
	// whose data flows into the register's value; -1 = untainted.
	taint [2][isa.NumRegs]int64

	misses  []oracleMissRec
	ladders []oracleLadder

	prof *Profile
}

func (c *oracleCollector) taintOf(r isa.RegRef) int64 {
	if !r.Valid {
		return -1
	}
	b := 0
	if r.FP {
		b = 1
	}
	return c.taint[b][r.N]
}

func (c *oracleCollector) setTaint(r isa.RegRef, t int64) {
	if !r.Valid {
		return
	}
	b := 0
	if r.FP {
		b = 1
	}
	c.taint[b][r.N] = t
}

func (c *oracleCollector) dataflow(op *oracleOpInfo, pos int64) {
	for i := range c.ladders {
		l := &c.ladders[i]
		if pos-l.chunkStart >= l.w {
			l.sumCrit += l.chunkMax
			l.chunkMax = 0
			l.chunkStart = pos
			l.chunk++
		}
		d := l.depthOf(op.src1)
		if d2 := l.depthOf(op.src2); d2 > d {
			d = d2
		}
		d += op.lat
		l.setDepth(op.dest, d)
		if d > l.chunkMax {
			l.chunkMax = d
		}
	}
}

func (c *oracleCollector) Instr(pc uint64, class isa.Class) {
	pos := c.pos
	c.pos++
	if line := (pc * 8) &^ 63; line != c.lastFetchLine {
		c.lastFetchLine = line
		switch c.h.ProfileFetch(line) {
		case mem.WarmHitL2:
			c.prof.L1IMisses++
		case mem.WarmHitMem:
			c.prof.L1IMisses++
			c.prof.L1IMemMisses++
		}
	}
	op := &c.ops[pc]
	switch class {
	case isa.ClassLoad, isa.ClassStore:
	default:
		t := c.taintOf(op.src1)
		if t2 := c.taintOf(op.src2); t2 > t {
			t = t2
		}
		c.setTaint(op.dest, t)
		c.dataflow(op, pos)
	}
}

func (c *oracleCollector) Mem(pc, addr uint64, store bool) {
	pos := c.pos - 1
	op := &c.ops[pc]
	if store {
		lvl, tlbMiss := c.h.ProfileStore(addr)
		if tlbMiss {
			c.prof.TLBMisses++
		}
		if lvl != mem.WarmHitL1 {
			c.prof.L1DMisses++
			if lvl == mem.WarmHitMem {
				c.prof.DataMemMisses++
			}
		}
		c.dataflow(op, pos)
		return
	}
	lvl, tlbMiss := c.h.ProfileLoad(addr)
	if tlbMiss {
		c.prof.TLBMisses++
	}
	dep := c.taintOf(op.src1)
	if lvl != mem.WarmHitL1 {
		c.prof.L1DMisses++
		if lvl == mem.WarmHitMem {
			c.prof.DataMemMisses++
			c.prof.LongLoadMisses++
			c.misses = append(c.misses, oracleMissRec{pos: pos, dep: dep})
			dep = pos
		}
	}
	c.setTaint(op.dest, dep)
	c.dataflow(op, pos)
}

func (c *oracleCollector) Branch(b emu.WarmBranch) {
	mis, btbMiss := c.bp.ProfileBranch(b.PC, b.Target, b.Taken, b.Cond, b.BTB)
	if b.Cond {
		c.prof.CondBranches++
		if mis {
			c.prof.Mispredicts++
		}
	}
	if btbMiss {
		c.prof.BTBMisses++
	}
	if op := &c.ops[b.PC]; op.dest.Valid {
		c.setTaint(op.dest, -1)
	}
}

func oracleSerializedAt(misses []oracleMissRec, w int64) float64 {
	var m float64
	leader := int64(-1 << 62)
	for _, ms := range misses {
		switch {
		case ms.dep >= 0:
			m++
			leader = ms.pos
		case ms.pos-leader > w:
			m++
			leader = ms.pos
		}
	}
	return m
}

// oracleCollect is Collect as it stood before it read prog.Decoded().
func oracleCollect(prog *isa.Program, scale string, opt CollectOptions) (*Profile, error) {
	if err := opt.Mem.Validate(); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	if err := opt.Bpred.Validate(); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	windows := DefaultWindows
	maxInstr := opt.MaxInstr
	if maxInstr == 0 {
		maxInstr = 1 << 62
	}

	ops := make([]oracleOpInfo, len(prog.Code))
	for pc, in := range prog.Code {
		ops[pc] = oracleOpInfo{
			src1: in.Src1(), src2: in.Src2(), dest: in.Dest(),
			lat: oracleClassLat[in.Op.Class()],
		}
	}
	c := &oracleCollector{
		ops:           ops,
		h:             mem.NewHierarchy(opt.Mem),
		bp:            bpred.New(opt.Bpred),
		lastFetchLine: ^uint64(0),
		prof: &Profile{
			Bench:   prog.Name,
			Scale:   scale,
			MemKey:  MemKey(opt.Mem),
			Windows: append([]int(nil), windows...),
		},
	}
	for b := range c.taint {
		for r := range c.taint[b] {
			c.taint[b][r] = -1
		}
	}
	c.ladders = make([]oracleLadder, len(windows))
	for i, w := range windows {
		if w <= 0 {
			return nil, fmt.Errorf("model: non-positive window %d in ladder", w)
		}
		c.ladders[i] = oracleLadder{w: int64(w)}
	}

	m := emu.New(prog)
	n, err := m.RunProfile(maxInstr, c)
	if err != nil && !errors.Is(err, emu.ErrNotHalted) {
		return nil, fmt.Errorf("model: profiling %s: %w", prog.Name, err)
	}
	p := c.prof
	p.N = n
	p.Halted = m.Halted
	p.ClassMix = m.ClassMix

	p.SerialMisses = make([]float64, len(windows))
	p.ILP = make([]float64, len(windows))
	for i := range windows {
		p.SerialMisses[i] = oracleSerializedAt(c.misses, int64(windows[i]))
		l := &c.ladders[i]
		crit := l.sumCrit + l.chunkMax
		if crit <= 0 {
			crit = 1
		}
		p.ILP[i] = float64(n) / float64(crit)
	}
	for i := 1; i < len(windows); i++ {
		if p.SerialMisses[i] > p.SerialMisses[i-1] {
			p.SerialMisses[i] = p.SerialMisses[i-1]
		}
		if p.ILP[i] < p.ILP[i-1] {
			p.ILP[i] = p.ILP[i-1]
		}
	}
	return p, nil
}

package core

import "largewindow/internal/isa"

// fetch brings up to FetchWidth instructions per cycle into the fetch
// queue, following the predicted path. Control transfers consult the
// branch predictor (speculatively updating its history); a predicted-taken
// transfer ends the fetch group. Direct transfers that miss in the BTB pay
// the 2-cycle misfetch bubble (target produced at decode); I-cache misses
// stall fetch until the line returns (Table 1 timing).
func (p *Processor) fetch() {
	if p.fetchStall > p.now || p.fetchHalted {
		return
	}
	codeLen := uint64(len(p.prog.Code))
	curLine := ^uint64(0)
	for n := 0; n < p.cfg.FetchWidth && int(p.ifqN) < len(p.ifq); n++ {
		pc := p.fetchPC
		if pc >= codeLen {
			// Wrong-path fetch ran off the program (e.g. a mispredicted
			// return). Wait for the resolving squash to redirect us.
			return
		}
		line := (pc * 8) &^ 63
		if line != curLine {
			res := p.hier.Fetch(pc*8, p.now)
			if res.L1Miss {
				p.fetchStall = res.Ready
				return
			}
			curLine = line
		}
		in := p.prog.Code[pc]
		// Build the record in its fetch-queue slot; a slot's prediction
		// fields are meaningful (and written) only for control transfers.
		fe := &p.ifq[ringAhead(p.ifqHead, p.ifqN, len(p.ifq))]
		fe.pc, fe.in, fe.fetched = pc, in, p.now
		next := pc + 1
		stop := false
		c := p.dec[pc].Class
		fe.isBranch = c == isa.ClassBranch || c == isa.ClassJump
		if fe.isBranch {
			fe.pred, fe.cp = p.bp.Predict(pc, in)
			if fe.pred.Taken {
				next = fe.pred.Target
				stop = true
				if !fe.pred.BTBHit && in.Op != isa.OpJr {
					// Direct transfer, target not in BTB: the front end
					// recomputes it at decode (2-cycle bubble).
					p.fetchStall = p.now + p.cfg.MisfetchPenalty
					p.stats.Misfetches++
				}
			}
		}
		p.ifqN++
		p.stats.FetchedInstrs++
		p.fetchPC = next
		if c == isa.ClassHalt {
			p.fetchHalted = true
			return
		}
		if stop {
			return
		}
	}
}

// flushIFQ squashes everything in the fetch queue (youngest first, so
// branch-predictor fixup unwinds in the right order).
func (p *Processor) flushIFQ() {
	for i := p.ifqN - 1; i >= 0; i-- {
		fe := &p.ifq[ringAhead(p.ifqHead, i, len(p.ifq))]
		if fe.isBranch {
			p.bp.Squash(fe.cp)
		}
		p.stats.SquashedInstrs++
	}
	p.ifqN = 0
}

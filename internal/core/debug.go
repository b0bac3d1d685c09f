package core

import (
	"fmt"
	"strings"
)

var stageNames = map[stage]string{
	stFree: "free", stWaiting: "waiting", stRequest: "request",
	stInWIB: "in-wib", stEligible: "eligible", stIssued: "issued", stDone: "done",
}

// DebugDump renders the machine's in-flight state for diagnosing hangs:
// the oldest ROB entries, queue occupancies, and WIB/bit-vector status.
func (p *Processor) DebugDump(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d committed=%d rob=%d/%d intIQ=%d/%d fpIQ=%d/%d ifq=%d events=%d fetchPC=%d stall=%d\n",
		p.now, p.stats.Committed, p.robCount, len(p.rob),
		p.intIQ.count, p.intIQ.size, p.fpIQ.count, p.fpIQ.size,
		p.ifqN, p.events.len(), p.fetchPC, p.fetchStall)
	if p.wib != nil {
		rows := 0
		for _, g := range p.wib.groups {
			rows += len(g.rows)
		}
		fmt.Fprintf(&b, "wib: occupancy=%d freeCols=%d/%d groups=%d(rows=%d) heap=%d banks=%d rrNext=%d nextAccess=%d\n",
			p.wib.occupancy, len(p.wib.free), len(p.wib.cols),
			len(p.wib.groups), rows, p.wib.elig.Len(), p.wib.eligCount, p.wib.rrNext, p.wib.nextAccess)
		for c := range p.wib.cols {
			if p.wib.cols[c].active {
				fmt.Fprintf(&b, "  col %d active loadSeq=%d rows=%d\n", c, p.wib.cols[c].loadSeq, p.wib.cols[c].n)
			}
		}
	}
	size := int32(len(p.rob))
	for i := int32(0); i < p.robCount && int(i) < n; i++ {
		idx := (p.robHead + i) % size
		e := &p.rob[idx]
		w := ""
		if e.wibCol >= 0 {
			w = fmt.Sprintf(" wibCol=%d", e.wibCol)
		}
		if e.ownCol >= 0 {
			w += fmt.Sprintf(" ownCol=%d", e.ownCol)
		}
		src := func(fp bool, r int32) string {
			if r == noReg {
				return "-"
			}
			pr := p.pr(fp, r)
			return fmt.Sprintf("p%d(r=%v w=%v)", r, pr.ready, pr.wait)
		}
		fmt.Fprintf(&b, "  [%3d] seq=%-6d pc=%-5d %-22s %-8s done=%v s1=%s s2=%s%s\n",
			idx, e.seq, e.pc, e.in.String(), stageNames[e.stage], e.done,
			src(e.src1FP, e.src1Phys), src(e.src2FP, e.src2Phys), w)
	}
	return b.String()
}

package main

import "largewindow/internal/regfile"

// regfileReadDelay times the two-level register file at the WIB
// machine's geometry (2048 registers, 128 in the first level, 4 read
// ports, 4-cycle second level): one write and two reads a cycle over a
// seeded register stream wider than the first level.
func regfileReadDelay(seed uint64) probe {
	return func(lc *layerCtx) error {
		const (
			regs = 2048
			ops  = 1_000_000
		)
		rf := regfile.NewTwoLevel(regs, 128, 4, 4)
		r := rng{x: seed}
		id := lc.tr.begin(root(0), "regfile", "Wrote+ReadDelay", "")
		for now := int64(0); now < ops/3; now++ {
			x := r.next()
			rf.Wrote(int(x%regs), now)
			rf.ReadDelay(int((x>>16)%512), now)
			rf.ReadDelay(int((x>>32)%regs), now)
		}
		lc.m.set("regfile.readdelay_ns", lc.tr.end(id)*1e9/ops, ops)
		return nil
	}
}

package core

import (
	"errors"
	"testing"

	"largewindow/internal/isa"
	"largewindow/internal/workload"
)

// TestInvariantsHoldEveryCycle runs a squash-heavy and a WIB-heavy
// workload with per-cycle structural checking enabled: any accounting
// corruption panics.
func TestInvariantsHoldEveryCycle(t *testing.T) {
	// WIB/2048-bv16 runs out of bit-vectors often, so its held loads meet
	// every wake-up: columns freeing, fills finishing, stores resolving.
	cfgs := []Config{DefaultConfig(), WIBDefault(), WIBConfigSized(256, 16), WIBConfigSized(2048, 16), WIBPoolOfBlocks(512, 4, 16)}
	for i := range cfgs {
		cfgs[i].Debug = true
	}
	for _, prog := range []func() *isa.Program{func() *isa.Program { return progMemAlias() },
		func() *isa.Program { return progRecursive() },
		func() *isa.Program { return progArraySweep(2048) }} {
		for _, cfg := range cfgs {
			p, err := New(cfg, prog())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Run(0, 20_000_000); err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
		}
	}
	// One real kernel with branches, calls, and misses.
	spec, _ := workload.Get("treeadd")
	for _, cfg := range cfgs {
		p, err := New(cfg, spec.Build(workload.ScaleTest))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(0, 20_000_000); err != nil {
			t.Fatalf("%s/treeadd: %v", cfg.Name, err)
		}
	}
}

// TestInvariantCatchesCorruption corrupts each checked structure of a
// mid-flight machine and asserts the checker reports the matching error
// kind. Several corruptions can legitimately trip more than one check
// (order of the scans), so each case admits a set of kinds.
func TestInvariantCatchesCorruption(t *testing.T) {
	// Store-bearing variant of the chain kernel: parkChain never fills
	// the store queue, so the SQ case needs its own victim machine.
	storeChain := func(t *testing.T, cfg Config) *Processor {
		t.Helper()
		b := isa.NewBuilder("store-chain")
		far := b.Alloc(1 << 22)
		b.LiAddr(isa.S0, far)
		b.Li(isa.A0, 0)
		b.Loop(isa.S5, 6, func() {
			b.Ld(isa.T0, isa.S0, 0)
			for i := 0; i < 8; i++ {
				b.Addi(isa.T0, isa.T0, 1)
				b.St(isa.T0, isa.S0, 8)
			}
			b.Add(isa.A0, isa.A0, isa.T0)
			b.Li64(isa.T1, 512*1024)
			b.Add(isa.S0, isa.S0, isa.T1)
		})
		b.Halt()
		p, err := New(cfg, b.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		// applicable reports whether the machine's current state offers a
		// victim; the test steps cycles until it does.
		applicable func(p *Processor) bool
		corrupt    func(p *Processor)
		kinds      []ErrKind
		// machine overrides the default parkChain victim.
		machine func(t *testing.T, cfg Config) *Processor
		// nextCycle requires detection on the first cycle after the
		// corruption, not merely eventually.
		nextCycle bool
	}{
		{
			name:       "iq-count-skew",
			applicable: func(p *Processor) bool { return p.intIQ.count > 0 },
			corrupt:    func(p *Processor) { p.intIQ.count++ },
			kinds:      []ErrKind{KindIQCount},
		},
		{
			// A stray request bit on a slot nobody dispatched into: the
			// select throws when it meets the bit, and if the issue width
			// runs out first the end-of-cycle recount names the bitmap.
			name:       "iq-request-stray-bit",
			applicable: func(p *Processor) bool { return p.robCount < int32(len(p.rob)) && !p.intIQ.req.has(p.robTail) },
			corrupt:    func(p *Processor) { p.intIQ.req.words[p.robTail>>6] |= 1 << (p.robTail & 63) },
			kinds:      []ErrKind{KindIQRequestMap},
			nextCycle:  true,
		},
		{
			// The oldest requester loses its bit (and the count agrees, as
			// after a clear on the wrong slot): nothing will ever select it.
			name:       "iq-request-missing-bit",
			applicable: func(p *Processor) bool { return p.oldestRequester() >= 0 },
			corrupt: func(p *Processor) {
				rob := p.oldestRequester()
				p.intIQ.req.remove(rob)
			},
			kinds:     []ErrKind{KindIQRequestMap},
			nextCycle: true,
		},
		{
			name:       "wib-occupancy-skew",
			applicable: func(p *Processor) bool { return p.wib != nil && p.wib.occupancy > 0 },
			corrupt:    func(p *Processor) { p.wib.occupancy-- },
			kinds:      []ErrKind{KindWIBOccupancy, KindWIBUnderflow},
		},
		{
			name:       "lq-count-skew",
			applicable: func(p *Processor) bool { return p.lsq.lqCount > 0 },
			corrupt:    func(p *Processor) { p.lsq.lqCount++ },
			kinds:      []ErrKind{KindLQCount},
		},
		{
			name:       "sq-count-skew",
			applicable: func(p *Processor) bool { return p.lsq.sqCount > 0 },
			corrupt:    func(p *Processor) { p.lsq.sqCount++ },
			kinds:      []ErrKind{KindSQCount},
			machine:    storeChain,
		},
		{
			// A stray bit on a slot nobody parked: either the end-of-cycle
			// recount or the select's own stage check names the bitmap.
			name:       "wib-eligible-bit-flip",
			applicable: func(p *Processor) bool { return !p.wib.eligibleBitSet(p.robTail) },
			corrupt: func(p *Processor) {
				b, k := p.wib.bankOf(p.robTail)
				p.wib.banks[b].words[k>>6] ^= 1 << (k & 63)
			},
			kinds:     []ErrKind{KindWIBEligibleMap},
			nextCycle: true,
		},
		{
			name:       "wib-eligible-count-off-by-one",
			applicable: func(p *Processor) bool { return true },
			corrupt:    func(p *Processor) { p.wib.eligCount++ },
			kinds:      []ErrKind{KindWIBEligibleMap},
			nextCycle:  true,
		},
		{
			name:       "sq-unresolved-off-by-one",
			applicable: func(p *Processor) bool { return true },
			corrupt:    func(p *Processor) { p.lsq.sqUnresolved.n++ },
			kinds:      []ErrKind{KindSQUnresolved},
			nextCycle:  true,
			machine:    storeChain,
		},
		{
			name:       "sq-addr-count-off-by-one",
			applicable: func(p *Processor) bool { return true },
			corrupt:    func(p *Processor) { p.lsq.sqAddrs.add(0x1238) },
			kinds:      []ErrKind{KindSQAddrIndex},
			nextCycle:  true,
			machine:    storeChain,
		},
		{
			name:       "lq-addr-count-off-by-one",
			applicable: func(p *Processor) bool { return true },
			corrupt:    func(p *Processor) { p.lsq.lqAddrs.add(0x1238) },
			kinds:      []ErrKind{KindLQAddrIndex},
			nextCycle:  true,
		},
		{
			name:       "free-list-duplicate",
			applicable: func(p *Processor) bool { return len(p.regs[0].free) > 0 },
			corrupt:    func(p *Processor) { p.regs[0].free = append(p.regs[0].free, p.regs[0].free[0]) },
			kinds:      []ErrKind{KindFreeListDouble},
		},
		{
			name:       "map-points-at-free",
			applicable: func(p *Processor) bool { return len(p.regs[0].free) > 0 },
			corrupt:    func(p *Processor) { p.regs[0].spec[7] = p.regs[0].free[0] },
			kinds:      []ErrKind{KindMapToFree},
		},
		{
			name: "inflight-dest-freed",
			applicable: func(p *Processor) bool {
				return p.oldestRenamedDest() >= 0
			},
			corrupt: func(p *Processor) {
				p.regs[0].free = append(p.regs[0].free, p.oldestRenamedDest())
			},
			// The freed register may also still be the current mapping for
			// its architectural register, so the map check can fire first.
			kinds: []ErrKind{KindInFlightFree, KindMapToFree},
		},
		{
			name:       "live-rob-entry-freed",
			applicable: func(p *Processor) bool { return p.robCount > 0 },
			corrupt:    func(p *Processor) { p.rob[p.robHead].stage = stFree },
			kinds:      []ErrKind{KindROBFreeEntry},
		},
		{
			name: "wib-column-leak",
			applicable: func(p *Processor) bool {
				if p.wib == nil {
					return false
				}
				for c := range p.wib.cols {
					if p.wib.cols[c].active {
						return true
					}
				}
				return false
			},
			corrupt: func(p *Processor) {
				for c := range p.wib.cols {
					if p.wib.cols[c].active {
						p.wib.cols[c].active = false
						return
					}
				}
			},
			kinds: []ErrKind{KindWIBColumns, KindWIBBadColumn, KindWIBOccupancy},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := WIBConfigSized(256, 16)
			cfg.Debug = true
			var p *Processor
			if tc.machine != nil {
				p = tc.machine(t, cfg)
			} else {
				p = parkChain(t, cfg, 32)
			}
			applied := false
			for c := int64(100); c <= 30_000 && !applied; c += 100 {
				if _, err := p.Run(0, c); !errors.Is(err, ErrBudget) {
					t.Fatalf("machine halted before corruption applied (err=%v)", err)
				}
				if tc.applicable(p) {
					tc.corrupt(p)
					applied = true
				}
			}
			if !applied {
				t.Fatal("corruption never applicable")
			}
			corruptedAt := p.now
			_, err := p.Run(0, 1_000_000)
			var se *SimError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want *SimError", err)
			}
			ok := false
			for _, k := range tc.kinds {
				if se.Kind == k {
					ok = true
				}
			}
			if !ok {
				t.Errorf("detected as [%s] (%s), want one of %v", se.Kind, se.Msg, tc.kinds)
			}
			if tc.nextCycle && se.Cycle != corruptedAt+1 {
				t.Errorf("corrupted at cycle %d, detected at cycle %d, want the next cycle", corruptedAt, se.Cycle)
			}
			if se.Dump == "" {
				t.Error("corruption report has no pipeline dump")
			}
		})
	}
}

// oldestRequester returns the slot of the oldest integer-queue entry in
// stRequest, or -1.
func (p *Processor) oldestRequester() int32 {
	if r := p.inflight(func(e *robEntry) bool { return e.stage == stRequest && e.intIQ }); len(r) > 0 {
		return r[0]
	}
	return -1
}

// oldestRenamedDest returns the destination physical register of the
// oldest in-flight instruction that renamed an integer register, or -1.
func (p *Processor) oldestRenamedDest() int32 {
	size := int32(len(p.rob))
	for i := int32(0); i < p.robCount; i++ {
		e := &p.rob[(p.robHead+i)%size]
		if e.newPhys != noReg && !e.destFP {
			return e.newPhys
		}
	}
	return -1
}

package core

import "testing"

func TestSliceCoreExecutesChains(t *testing.T) {
	cfg := WIBWithSliceCore(256, 4)
	p := parkChain(t, cfg, 48)
	if _, err := p.Run(0, 2_000_000); err != nil {
		t.Fatalf("%v\n%s", err, p.DebugDump(12))
	}
	if p.stats.SliceExecuted == 0 {
		t.Error("slice core executed nothing on a miss-bound chain")
	}
	if got := p.regs[0].committed(20); got != 6*48 { // A0 = arch reg 20
		t.Errorf("A0 = %d, want %d", got, 6*48)
	}
}

func TestSliceCoreGoldenEquivalence(t *testing.T) {
	for _, prog := range testPrograms() {
		prog := prog
		t.Run(prog.Name, func(t *testing.T) {
			t.Parallel()
			runBoth(t, WIBWithSliceCore(512, 2), prog)
		})
	}
}

func TestSliceCoreHelpsOrMatches(t *testing.T) {
	// On a compute-chain-behind-miss workload, offloading the chains to a
	// slice core must not hurt significantly vs. the plain WIB at the same
	// capacity (it frees dispatch and issue bandwidth).
	prog := progArraySweep(4096)
	plain := WIBConfigSized(512, 0)
	plain.WIB.Banked = false
	plain.WIB.Policy = PolicyProgramOrder
	plain.Name = "WIB-po"
	sPlain := runToHalt(t, plain, prog)
	sSlice := runToHalt(t, WIBWithSliceCore(512, 4), prog)
	if sSlice.IPC < sPlain.IPC*0.9 {
		t.Errorf("slice core IPC %.3f well below plain WIB %.3f", sSlice.IPC, sPlain.IPC)
	}
	if sSlice.SliceExecuted == 0 {
		t.Error("no slice executions recorded")
	}
}

func TestSliceWidthValidation(t *testing.T) {
	cfg := WIBWithSliceCore(512, 2)
	cfg.WIB.SliceWidth = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative slice width accepted")
	}
}

func TestMultiBankedRFGolden(t *testing.T) {
	runBoth(t, WIBMultiBankedRF(512, 8, 2), progMemAlias())
}

func TestPrefetchOnReinsertGolden(t *testing.T) {
	cfg := WIBConfigSized(512, 0)
	cfg.RFPrefetchOnReinsert = true
	cfg.Name = "WIB-rfprefetch"
	runBoth(t, cfg, progMemAlias())
}

func TestPrefetchOnReinsertDoesNotHurt(t *testing.T) {
	prog := progArraySweep(4096)
	off := WIBConfigSized(512, 0)
	on := WIBConfigSized(512, 0)
	on.RFPrefetchOnReinsert = true
	on.Name = "WIB-rfprefetch"
	sOff := runToHalt(t, off, prog)
	sOn := runToHalt(t, on, prog)
	if sOn.IPC < sOff.IPC*0.98 {
		t.Errorf("prefetch-on-reinsert regressed IPC: %.3f vs %.3f", sOn.IPC, sOff.IPC)
	}
}

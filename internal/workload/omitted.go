package workload

import "largewindow/internal/isa"

// The paper omits two programs from its suites: "We omit several
// benchmarks either because the L1 data cache miss ratios are below 1% or
// their IPCs are unreasonably low (health and ammp are both less than
// 0.1)" (§2.2.1). We implement both anyway — they are useful stress tests
// — and exclude them from the evaluation suites exactly as the paper
// does. TestOmittedBenchmarksAreSlow demonstrates the reason they were
// dropped.

func init() {
	registerOmitted("health", SuiteOlden, buildHealth)
	registerOmitted("ammp", SuiteFP, buildAmmp)
}

func registerOmitted(name string, suite Suite, build func(Scale) *isa.Program) {
	registry[name] = Spec{Name: name, Suite: suite, Build: build, Omitted: true}
}

// buildHealth models Olden health: a four-way hierarchy of villages, each
// with linked patient lists that are walked and spliced every time step.
// Almost every instruction is on a serial pointer chase through cold
// memory — the paper measured IPC below 0.1.
func buildHealth(s Scale) *isa.Program {
	villages := pick3(s, 16, 256, 1024)
	patientsPer := pick3(s, 8, 24, 64)
	steps := pick3(s, 4, 40, 200)
	b := isa.NewBuilder("health")
	r := newPRNG(61)

	// Patient: {next, remaining, hosp}. Village: {listHead, pad...}.
	// Scatter both across a wide heap.
	villAddr := make([]uint64, villages)
	for i := range villAddr {
		villAddr[i] = b.Alloc(32 + uint64(r.intn(16))*256)
	}
	for i := 0; i < villages; i++ {
		var head uint64
		for p := 0; p < patientsPer; p++ {
			pa := b.Alloc(32 + uint64(r.intn(16))*256)
			b.SetWord(pa, head)
			b.SetWord(pa+8, uint64(1+r.intn(7))) // treatment time remaining
			head = pa
		}
		b.SetWord(villAddr[i], head)
	}
	villPtrs := b.AllocWords(uint64(villages))
	for i, a := range villAddr {
		b.SetWord(villPtrs+uint64(i)*8, a)
	}

	// for step: for each village: walk the patient list, decrement
	// `remaining`, count the ready ones.
	b.LiAddr(isa.S0, villPtrs)
	b.Li(isa.S5, int32(steps))
	step := b.Here()
	b.Li(isa.S4, 0) // village index
	vil := b.Here()
	b.Slli(isa.T0, isa.S4, 3)
	b.Add(isa.T0, isa.T0, isa.S0)
	b.Ld(isa.T1, isa.T0, 0) // village (scattered)
	b.Ld(isa.T2, isa.T1, 0) // patient list head (scattered)
	walk := b.Here()
	endList := b.NewLabel()
	notReady := b.NewLabel()
	b.Beq(isa.T2, isa.Zero, endList)
	b.Ld(isa.T3, isa.T2, 8) // remaining (serial chase)
	b.Addi(isa.T3, isa.T3, -1)
	b.Bne(isa.T3, isa.Zero, notReady)
	b.Addi(isa.A0, isa.A0, 1) // treated
	b.Li(isa.T3, 7)           // re-admit
	b.Bind(notReady)
	b.St(isa.T3, isa.T2, 8)
	b.Ld(isa.T2, isa.T2, 0) // next patient (serial chase)
	b.J(walk)
	b.Bind(endList)
	b.Addi(isa.S4, isa.S4, 1)
	b.Slti(isa.T5, isa.S4, int32(villages))
	b.Bne(isa.T5, isa.Zero, vil)
	b.Addi(isa.S5, isa.S5, -1)
	b.Bne(isa.S5, isa.Zero, step)
	b.Halt()
	return b.MustBuild()
}

// buildAmmp models the ammp molecular-dynamics hot loop: for each atom, a
// serial walk of its neighbor list computing a 1/r^2-style interaction
// with FP divides on the critical path — long-latency serial FP plus
// scattered loads gave the paper an IPC below 0.1.
func buildAmmp(s Scale) *isa.Program {
	atoms := pick3(s, 64, 1024, 8192)
	nbrs := pick3(s, 4, 12, 24)
	iters := pick3(s, 2, 8, 20)
	b := isa.NewBuilder("ammp")
	r := newPRNG(67)

	// Atom: {x, y, z, f} plus a neighbor pointer table.
	atomAddr := make([]uint64, atoms)
	for i := range atomAddr {
		atomAddr[i] = b.Alloc(32 + uint64(r.intn(8))*224)
	}
	nbrTables := b.AllocWords(uint64(atoms * nbrs))
	for i := 0; i < atoms; i++ {
		b.SetF64(atomAddr[i], r.f64()*10)
		b.SetF64(atomAddr[i]+8, r.f64()*10)
		b.SetF64(atomAddr[i]+16, r.f64()*10)
		for j := 0; j < nbrs; j++ {
			b.SetWord(nbrTables+uint64(i*nbrs+j)*8, atomAddr[r.intn(atoms)])
		}
	}
	atomPtrs := b.AllocWords(uint64(atoms))
	for i, a := range atomAddr {
		b.SetWord(atomPtrs+uint64(i)*8, a)
	}

	b.Li(isa.S5, int32(iters))
	iter := b.Here()
	b.LiAddr(isa.S0, atomPtrs)
	b.LiAddr(isa.S1, nbrTables)
	b.Li(isa.S4, int32(atoms))
	atom := b.Here()
	b.Ld(isa.T0, isa.S0, 0)  // atom ptr
	b.Fld(isa.F0, isa.T0, 0) // x
	b.Fld(isa.F1, isa.T0, 8) // y
	b.Li(isa.S3, int32(nbrs))
	fzero(b, isa.F4) // force accumulator
	nbr := b.Here()
	b.Ld(isa.T1, isa.S1, 0)  // neighbor ptr (scattered)
	b.Fld(isa.F2, isa.T1, 0) // nx
	b.Fld(isa.F3, isa.T1, 8) // ny
	b.Fsub(isa.F2, isa.F2, isa.F0)
	b.Fsub(isa.F3, isa.F3, isa.F1)
	b.Fmul(isa.F2, isa.F2, isa.F2)
	b.Fmul(isa.F3, isa.F3, isa.F3)
	b.Fadd(isa.F2, isa.F2, isa.F3)
	// Serial divide chain: force += f(prev) / r2 — the critical path the
	// paper's ammp suffers from.
	b.Fadd(isa.F5, isa.F4, isa.F2)
	b.Fdiv(isa.F4, isa.F5, isa.F2) // non-pipelined 12-cycle divide
	b.Addi(isa.S1, isa.S1, 8)
	b.Addi(isa.S3, isa.S3, -1)
	b.Bne(isa.S3, isa.Zero, nbr)
	b.Fst(isa.F4, isa.T0, 24)
	b.Addi(isa.S0, isa.S0, 8)
	b.Addi(isa.S4, isa.S4, -1)
	b.Bne(isa.S4, isa.Zero, atom)
	b.Addi(isa.S5, isa.S5, -1)
	b.Bne(isa.S5, isa.Zero, iter)
	b.Halt()
	return b.MustBuild()
}

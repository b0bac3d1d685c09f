package emu

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"largewindow/internal/isa"
)

// The fuzz input is a three-byte header (instruction budget, chunking
// seed, register seed) followed by six bytes per instruction: opcode, rd,
// rs1, rs2 and a little-endian int16 immediate.
const (
	fuzzHeader   = 3
	fuzzInstrLen = 6
	fuzzMaxCode  = 48
)

// fuzzCorners are the initial register values: the operands where the
// inlined arms could part from isa.Eval (division by zero and overflow,
// shift counts at and beyond the word size, FP bit patterns that convert
// badly) plus small values that make Jr targets and addresses land inside
// and outside the program.
var fuzzCorners = []uint64{
	0, 1, 2, 3, 5, 8, 63, 64, 65, 127,
	^uint64(0),                        // -1
	1 << 63,                           // MinInt64
	1<<63 - 1,                         // MaxInt64
	0x8000_0000,                       // 2^31
	0xffff_ffff_0000_0000,             // high word set
	0x10_0000, 0x10_0008, 0x7fff_fff8, // addresses: near and far pages
	math.Float64bits(1.5), math.Float64bits(-2.25), math.Float64bits(math.Copysign(0, -1)),
	math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
	math.Float64bits(1e300), math.Float64bits(-1e300), math.Float64bits(9.3e18), // Fcvti overflows
	math.Float64bits(5e-324), // denormal
}

// fuzzCase is one decoded input.
type fuzzCase struct {
	prog    *isa.Program
	budget  uint64
	chunk   byte
	regSeed byte
}

// decodeFuzz turns the input bytes into a valid program. Direct branch
// and jump offsets with an even high immediate byte are wrapped into the
// code segment, so loops and forward skips are common and wild targets
// still occur; everything else is taken as it comes.
func decodeFuzz(data []byte) (fuzzCase, bool) {
	if len(data) < fuzzHeader+fuzzInstrLen {
		return fuzzCase{}, false
	}
	fc := fuzzCase{budget: 1 + uint64(data[0]), chunk: data[1], regSeed: data[2]}
	body := data[fuzzHeader:]
	n := min(len(body)/fuzzInstrLen, fuzzMaxCode)
	code := make([]isa.Instr, n)
	for pc := range code {
		b := body[pc*fuzzInstrLen:]
		in := isa.Instr{
			Op:  isa.Op(int(b[0]) % isa.NumOps),
			Rd:  isa.Reg(b[1] % isa.NumRegs),
			Rs1: isa.Reg(b[2] % isa.NumRegs),
			Rs2: isa.Reg(b[3] % isa.NumRegs),
			Imm: int32(int16(uint16(b[4]) | uint16(b[5])<<8)),
		}
		if in.Op.IsBranch() && in.Op != isa.OpJr && b[5]&1 == 0 {
			target := ((pc+1+int(int8(b[4])))%n + n) % n
			in.Imm = int32(target - pc - 1)
		}
		code[pc] = in
	}
	fc.prog = &isa.Program{Name: "fuzz", Code: code, StackTop: 0x7fff_fff8, DataBase: 0x10_0000}
	return fc, true
}

// encodeFuzz is decodeFuzz's inverse for hand-written seeds. Branch
// offsets must be in range and are encoded so that wrapping leaves them
// alone.
func encodeFuzz(budget, chunk, regSeed byte, code ...isa.Instr) []byte {
	out := []byte{budget - 1, chunk, regSeed}
	for _, in := range code {
		lo, hi := byte(in.Imm), byte(in.Imm>>8)
		if in.Op.IsBranch() && in.Op != isa.OpJr {
			hi = 0 // wrapped: decodeFuzz recomputes the same in-range offset from lo
		}
		out = append(out, byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2), lo, hi)
	}
	return out
}

// machine returns a fresh machine with every register but Zero, SP and GP
// loaded from the corner table.
func (fc fuzzCase) machine() *Machine {
	m := New(fc.prog)
	for i := 1; i < isa.NumRegs; i++ {
		if r := isa.Reg(i); r != isa.SP && r != isa.GP {
			m.IntReg[i] = fuzzCorners[(int(fc.regSeed)*7+i*13)%len(fuzzCorners)]
		}
	}
	for i := range m.FPReg {
		m.FPReg[i] = fuzzCorners[(int(fc.regSeed)*11+i*5)%len(fuzzCorners)]
	}
	return m
}

// events is an executed access stream, one sequence per kind as a WarmLog
// keeps it, plus the retired PCs and classes only a ProfileSink sees.
type events struct {
	fetch  []uint64
	mem    []uint64 // addr<<1 | store
	branch []WarmBranch
	pcs    []uint64
	class  []isa.Class
}

func (e *events) instr(pc uint64, class isa.Class) {
	e.pcs = append(e.pcs, pc)
	e.class = append(e.class, class)
	if line := (pc * 8) &^ 63; len(e.fetch) == 0 || e.fetch[len(e.fetch)-1] != line {
		e.fetch = append(e.fetch, line)
	}
}

func (e *events) access(addr uint64, store bool) {
	v := addr << 1
	if store {
		v |= 1
	}
	e.mem = append(e.mem, v)
}

// warmEvents is a WarmSink that is not a *WarmLog, so run calls it
// through the interface.
type warmEvents struct{ events }

func (w *warmEvents) WarmFetch(line uint64)   { w.fetch = append(w.fetch, line) }
func (w *warmEvents) WarmLoad(addr uint64)    { w.access(addr, false) }
func (w *warmEvents) WarmStore(addr uint64)   { w.access(addr, true) }
func (w *warmEvents) WarmBranch(b WarmBranch) { w.branch = append(w.branch, b) }

type profEvents struct{ events }

func (p *profEvents) Instr(pc uint64, class isa.Class) { p.instr(pc, class) }
func (p *profEvents) Mem(_, addr uint64, store bool)   { p.access(addr, store) }
func (p *profEvents) Branch(b WarmBranch)              { p.branch = append(p.branch, b) }

// stepRun is Run's contract on the Step interpreter, deriving the event
// stream from the operands just before each Step, through isa.EffAddr
// and isa.BranchTaken.
func stepRun(m *Machine, maxInstr uint64, ev *events) (uint64, error) {
	var count uint64
	for count < maxInstr && !m.Halted {
		pc := m.PC
		if pc < uint64(len(m.Prog.Code)) {
			in := m.Prog.Code[pc]
			ev.instr(pc, in.Op.Class())
			rs1, rs2 := m.readSrc(in.Src1()), m.readSrc(in.Src2())
			switch in.Op.Class() {
			case isa.ClassLoad, isa.ClassStore:
				ev.access(isa.EffAddr(in, rs1), in.Op.Class() == isa.ClassStore)
			case isa.ClassBranch:
				taken := isa.BranchTaken(in, rs1, rs2)
				ev.branch = append(ev.branch, WarmBranch{PC: pc, Target: in.Target(pc), Taken: taken, Cond: true, BTB: taken})
			case isa.ClassJump:
				if in.Op == isa.OpJr {
					ev.branch = append(ev.branch, WarmBranch{PC: pc, Target: rs1, Taken: true})
				} else {
					ev.branch = append(ev.branch, WarmBranch{PC: pc, Target: in.Target(pc), Taken: true, BTB: true})
				}
			}
		}
		if err := m.Step(); err != nil {
			return count, err
		}
		count++
	}
	if !m.Halted {
		return count, ErrNotHalted
	}
	return count, nil
}

// sameOutcome fails the test unless machine got ended exactly where the
// reference machine want did: the Step loop's, or a straight run's.
func sameOutcome(t *testing.T, what string, got, want *Machine, n, wantN uint64, err, wantErr error) {
	t.Helper()
	if n != wantN || (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: returned (%d, %v), want (%d, %v)", what, n, err, wantN, wantErr)
	}
	if got.Snapshot() != want.Snapshot() || got.PC != want.PC {
		t.Fatalf("%s: state diverges:\n got pc %d %+v\nwant pc %d %+v",
			what, got.PC, got.Snapshot(), want.PC, want.Snapshot())
	}
	if got.CondCount != want.CondCount || got.TakenCond != want.TakenCond {
		t.Fatalf("%s: branch counters %d/%d, want %d/%d",
			what, got.TakenCond, got.CondCount, want.TakenCond, want.CondCount)
	}
	if !reflect.DeepEqual(got.ClassMix, want.ClassMix) {
		t.Fatalf("%s: class mix %v, want %v", what, got.ClassMix, want.ClassMix)
	}
}

// sameSeq fails the test unless two event sequences are equal (nil and
// empty alike).
func sameSeq[T any](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: got %v, Step loop %v", what, got, want)
	}
}

// FuzzRunMatchesStep holds the fast interpreter to the executable
// specification over generated programs that reach every opcode with
// corner operands. For each input: run must match a Step loop on
// Snapshot, PC, ClassMix, the branch counters and the returned count and
// error, with every kind of sink attached; the same run cut into chunks
// must end in the same place; and a WarmLog, an interface WarmSink and a
// ProfileSink must each see the event stream the Step loop derives.
func FuzzRunMatchesStep(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc, ok := decodeFuzz(data)
		if !ok {
			t.Skip()
		}
		slow := fc.machine()
		var want events
		wantN, wantErr := stepRun(slow, fc.budget, &want)

		fast := fc.machine()
		n, err := fast.Run(fc.budget)
		sameOutcome(t, "Run", fast, slow, n, wantN, err, wantErr)

		fast = fc.machine()
		log := NewWarmLog(int(fc.budget), int(fc.budget), int(fc.budget))
		n, err = fast.RunSink(fc.budget, log)
		sameOutcome(t, "RunSink into a WarmLog", fast, slow, n, wantN, err, wantErr)
		var logBranches []WarmBranch
		for _, b := range log.branch.seq() {
			logBranches = append(logBranches, b.unpack())
		}
		sameSeq(t, "WarmLog fetch lines", log.fetch.seq(), want.fetch)
		sameSeq(t, "WarmLog data accesses", log.mem.seq(), want.mem)
		sameSeq(t, "WarmLog branches", logBranches, want.branch)

		fast = fc.machine()
		var warm warmEvents
		n, err = fast.RunSink(fc.budget, &warm)
		sameOutcome(t, "RunSink", fast, slow, n, wantN, err, wantErr)
		sameSeq(t, "WarmSink fetch lines", warm.fetch, want.fetch)
		sameSeq(t, "WarmSink data accesses", warm.mem, want.mem)
		sameSeq(t, "WarmSink branches", warm.branch, want.branch)

		fast = fc.machine()
		var prof profEvents
		n, err = fast.RunProfile(fc.budget, &prof)
		sameOutcome(t, "RunProfile", fast, slow, n, wantN, err, wantErr)
		sameSeq(t, "ProfileSink pcs", prof.pcs, want.pcs)
		sameSeq(t, "ProfileSink classes", prof.class, want.class)
		sameSeq(t, "ProfileSink data accesses", prof.mem, want.mem)
		sameSeq(t, "ProfileSink branches", prof.branch, want.branch)

		// The same budget in chunks, a different kind of sink on each, so
		// the register array is carried out and back in mid-block.
		fast = fc.machine()
		n, err = 0, ErrNotHalted
		step := 1 + uint64(fc.chunk%7)
		for i := 0; n < fc.budget && errors.Is(err, ErrNotHalted); i++ {
			size := min(step+uint64(i%3), fc.budget-n)
			var c uint64
			switch (int(fc.chunk) + i) % 4 {
			case 0:
				c, err = fast.Run(size)
			case 1:
				c, err = fast.RunSink(size, log)
			case 2:
				c, err = fast.RunSink(size, &warm)
			default:
				c, err = fast.RunProfile(size, &prof)
			}
			n += c
		}
		sameOutcome(t, "chunked run", fast, slow, n, wantN, err, wantErr)
	})
}

// fuzzSeeds is the in-code corpus: every opcode over a spread of register
// choices (so each sees zero, negative, huge and non-finite operands
// under the seeds' register fills), random programs, then the control and
// budget corners by hand. testdata/fuzz holds inputs the fuzzer itself
// found interesting.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	for op := 0; op < isa.NumOps; op++ {
		var code []isa.Instr
		for i := 0; i < 12; i++ {
			rd := isa.Reg(4 + i)
			if i%4 == 3 {
				rd = isa.Zero
			}
			code = append(code, isa.Instr{Op: isa.Op(op), Rd: rd, Rs1: isa.Reg((3*i + 1) % isa.NumRegs), Rs2: isa.Reg((5*i + 2) % isa.NumRegs), Imm: int32(16*i - 64)})
		}
		if isa.Op(op).IsBranch() || isa.Op(op) == isa.OpHalt {
			code = code[:3]
			for i := range code {
				code[i].Imm = int32(1 - i) // forward, to the next instruction, to itself
			}
			code[1].Rs2 = code[1].Rs1 // equal operands: Beq/Bge taken, Bne/Blt not
		}
		code = append(code, isa.Instr{Op: isa.OpAdd, Rd: isa.T0, Rs1: isa.Zero, Rs2: isa.T1}, isa.Instr{Op: isa.OpHalt})
		for _, regSeed := range []byte{0, 5, 11, 19} {
			seeds = append(seeds, encodeFuzz(40, byte(op), regSeed, code...))
		}
	}
	// Random bytes decode to valid programs by construction: dense mixes
	// of every opcode with loops, stores feeding loads and wild targets.
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 64; i++ {
		seed := make([]byte, fuzzHeader+fuzzMaxCode*fuzzInstrLen)
		rng.Read(seed)
		seeds = append(seeds, seed)
	}
	return append(seeds,
		// A counted loop whose budget expires mid-iteration.
		encodeFuzz(23, 2, 0,
			isa.Instr{Op: isa.OpLi, Rd: isa.T0, Imm: 9},
			isa.Instr{Op: isa.OpAddi, Rd: isa.T0, Rs1: isa.T0, Imm: -1},
			isa.Instr{Op: isa.OpSt, Rs1: isa.GP, Rs2: isa.T0, Imm: 8},
			isa.Instr{Op: isa.OpLd, Rd: isa.T1, Rs1: isa.GP, Imm: 8},
			isa.Instr{Op: isa.OpBne, Rs1: isa.T1, Rs2: isa.Zero, Imm: -4},
			isa.Instr{Op: isa.OpHalt}),
		// Writes to Zero, then a read of it.
		encodeFuzz(10, 1, 3,
			isa.Instr{Op: isa.OpLi, Rd: isa.Zero, Imm: 77},
			isa.Instr{Op: isa.OpLd, Rd: isa.Zero, Rs1: isa.GP},
			isa.Instr{Op: isa.OpJal, Rd: isa.Zero, Imm: 0},
			isa.Instr{Op: isa.OpAdd, Rd: isa.T0, Rs1: isa.Zero, Rs2: isa.Zero},
			isa.Instr{Op: isa.OpHalt}),
		// Jr inside the program, then Jr to a wild address.
		encodeFuzz(10, 3, 0,
			isa.Instr{Op: isa.OpLi, Rd: isa.T0, Imm: 3},
			isa.Instr{Op: isa.OpJr, Rs1: isa.T0},
			isa.Instr{Op: isa.OpHalt},
			isa.Instr{Op: isa.OpLi, Rd: isa.T1, Imm: 30000},
			isa.Instr{Op: isa.OpJr, Rs1: isa.T1}),
		// Falling off the end of the code segment.
		encodeFuzz(10, 0, 0, isa.Instr{Op: isa.OpNop}, isa.Instr{Op: isa.OpFmov, Rd: isa.F1, Rs1: isa.F2}),
	)
}

// checkpointSpan reads a fuzz case's header as a fast-forward: the skip
// is the budget byte times 2K instructions, the logged tail the chunk
// byte times 1K. A tail of 32K or more can fill all three rings; the
// skip lands inside the tail about a quarter of the time.
func checkpointSpan(fc fuzzCase) (skip, tail uint64) {
	return fc.budget << 11, uint64(fc.chunk) << 10
}

// maxFuzzPages bounds the memory a fuzzed fast-forward may touch: a loop
// that stores to a fresh page every few instructions would otherwise
// hold gigabytes in each of the three machines the target runs.
const maxFuzzPages = 256

// touchesFewPages reports whether skip instructions from the fresh
// machine m stay within maxFuzzPages pages, running them in chunks so
// the check stops early.
func touchesFewPages(m *Machine, skip uint64) bool {
	for m.InstrCount < skip && !m.Halted {
		if _, err := m.Run(min(4096, skip-m.InstrCount)); err != nil && !errors.Is(err, ErrNotHalted) {
			return true
		}
		if m.Mem.Pages() > maxFuzzPages {
			return false
		}
	}
	return true
}

// FuzzBuildCheckpointMatchesFullLog holds the tail-logged fast-forward to
// the one-pass build in checkpoint_oracle_test.go, byte for byte on the
// wire, over decodeFuzz's programs with tails small enough that the run
// ends in each place: the tail fills every ring, the program halts in
// the bare prefix, or the tail runs too few loads, branches or fetch
// lines to fill a ring (checkpointPathSeeds has one of each).
func FuzzBuildCheckpointMatchesFullLog(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	for _, s := range checkpointPathSeeds() {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc, ok := decodeFuzz(data)
		if !ok {
			t.Skip()
		}
		skip, tail := checkpointSpan(fc)
		if !touchesFewPages(New(fc.prog), skip) {
			t.Skip()
		}
		want, wantErr := oracleBuildCheckpoint(fc.prog, skip)
		got, err := buildCheckpoint(fc.prog, skip, tail)
		sameCheckpoint(t, fmt.Sprintf("skip=%d tail=%d", skip, tail), got, want, err, wantErr)
	})
}

// FuzzCheckpointResumeMatchesStraightRun is the checkpoint/resume rung:
// over decodeFuzz's programs, a machine that runs k instructions,
// checkpoints and resumes to the straight run's length must end where
// the straight run does — from the checkpoint itself and from its JSON
// copy — on Snapshot, PC, ClassMix, the branch counters and the count
// and error. The span is the budget byte times 256 instructions and k
// the chunk byte's share of it, so k often lies past a halt. A
// checkpoint whose next instruction faults sits at a PC outside the
// code segment, and Restore must refuse it.
func FuzzCheckpointResumeMatchesStraightRun(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc, ok := decodeFuzz(data)
		if !ok {
			t.Skip()
		}
		span := fc.budget << 8
		k := span * uint64(fc.chunk) / 255
		if !touchesFewPages(fc.machine(), span) {
			t.Skip()
		}
		straight := fc.machine()
		wantN, wantErr := straight.Run(span)

		head := fc.machine()
		headN, _ := head.Run(k)
		cp := head.Checkpoint()
		raw, err := cp.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var decoded Checkpoint
		if err := decoded.UnmarshalJSON(raw); err != nil {
			t.Fatalf("k=%d: decoding the checkpoint: %v", k, err)
		}
		faults := !head.Halted && head.PC >= uint64(len(fc.prog.Code))
		for _, from := range []struct {
			what string
			cp   *Checkpoint
		}{{"checkpoint", cp}, {"JSON copy", &decoded}} {
			what := fmt.Sprintf("k=%d resumed from the %s", k, from.what)
			m, err := Restore(fc.prog, from.cp)
			if faults {
				if err == nil {
					t.Fatalf("%s: restored a checkpoint at pc %d, outside the code segment", what, head.PC)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			n, err := m.Run(span - headN)
			sameOutcome(t, what, m, straight, headN+n, wantN, err, wantErr)
		}
	})
}

// checkpointPathSeed is a fuzz input whose fast-forward ends in a known
// place: full says whether its tail alone fills every ring.
type checkpointPathSeed struct {
	name string
	data []byte
	full bool
}

// checkpointPathSeeds are one input per way a tail-logged fast-forward
// can end. Each runs a 200K-instruction tail after a 200K-instruction
// prefix. The loop body of the first spans two fetch lines and does one
// load, one store and one branch per nine instructions, so its tail fills
// every ring; the others change one thing.
func checkpointPathSeeds() []checkpointPathSeed {
	loop := func(start int32, body ...isa.Instr) []isa.Instr {
		code := []isa.Instr{{Op: isa.OpLi, Rd: isa.T0, Imm: start}}
		code = append(code, body...)
		return append(code,
			isa.Instr{Op: isa.OpBne, Rs1: isa.T0, Rs2: isa.Zero, Imm: int32(-len(body) - 1)},
			isa.Instr{Op: isa.OpHalt})
	}
	step := isa.Instr{Op: isa.OpAddi, Rd: isa.T0, Rs1: isa.T0, Imm: 8}
	addr := []isa.Instr{
		{Op: isa.OpAndi, Rd: isa.T1, Rs1: isa.T0, Imm: 0x1ff8}, // two pages
		{Op: isa.OpAdd, Rd: isa.T2, Rs1: isa.GP, Rs2: isa.T1},
	}
	access := []isa.Instr{
		{Op: isa.OpSt, Rs1: isa.T2, Rs2: isa.T0},
		{Op: isa.OpLd, Rd: isa.T3, Rs1: isa.T2},
	}
	nops := []isa.Instr{{Op: isa.OpNop}, {Op: isa.OpNop}, {Op: isa.OpNop}}
	twoLines := slices.Concat([]isa.Instr{step}, addr, access, nops)
	noMem := slices.Concat([]isa.Instr{step}, addr, nops, nops[:2])
	oneLine := slices.Concat([]isa.Instr{step}, access[:1], addr[:1])
	seed := func(name string, full bool, code []isa.Instr) checkpointPathSeed {
		return checkpointPathSeed{name, encodeFuzz(200, 200, 0, code...), full}
	}
	return []checkpointPathSeed{
		seed("tail fills every ring", true, loop(8, twoLines...)),
		seed("halts in the prefix", false, loop(-8000, twoLines...)),
		seed("load- and store-free tail", false, loop(8, noMem...)),
		seed("one fetch line", false, loop(8, oneLine...)),
	}
}

// TestBuildCheckpointPathSeeds pins where each path seed's fast-forward
// ends, so the fuzz corpus keeps a case for the tail and for each
// fallback, and checks each against the oracle.
func TestBuildCheckpointPathSeeds(t *testing.T) {
	for _, s := range checkpointPathSeeds() {
		fc, ok := decodeFuzz(s.data)
		if !ok {
			t.Fatalf("%s: seed does not decode", s.name)
		}
		skip, tail := checkpointSpan(fc)
		cp, err := fastForward(fc.prog, skip, tail)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if cp.Warm.full() != s.full {
			t.Errorf("%s: tail fills every ring = %v, want %v (mem %d, fetch %d, branch %d)", s.name,
				cp.Warm.full(), s.full, len(cp.Warm.mem.buf), len(cp.Warm.fetch.buf), len(cp.Warm.branch.buf))
		}
		want, wantErr := oracleBuildCheckpoint(fc.prog, skip)
		got, err := buildCheckpoint(fc.prog, skip, tail)
		sameCheckpoint(t, s.name, got, want, err, wantErr)
	}
}

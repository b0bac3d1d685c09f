package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"largewindow/internal/bpred"
	"largewindow/internal/isa"
	"largewindow/internal/mem"
	"largewindow/internal/workload"
)

// oracleKernels is every registered kernel: the evaluation set plus the
// two the paper omits from its tables.
func oracleKernels() []string {
	names := workload.Names()
	for _, n := range []string{"health", "ammp"} {
		if s, ok := workload.Get(n); !ok || !s.Omitted {
			panic(fmt.Sprintf("kernel %q is no longer an omitted registry kernel", n))
		}
		names = append(names, n)
	}
	return names
}

// oracleSynth are seeded held-out synth programs spanning the miss,
// entropy and working-set dials.
var oracleSynth = []string{
	"synth:mlp=1,miss=0.05,entropy=0.1,ws=64k,n=20000,seed=3",
	"synth:mlp=4,miss=0.2,entropy=0.6,ws=4m,n=20000,seed=11",
	"synth:mlp=8,miss=0.3,entropy=0.9,ws=16m,n=20000,seed=29",
}

// sameAsOracle fails the test unless Collect and the oracle produce
// DeepEqual profiles (or the same error) for prog.
func sameAsOracle(t *testing.T, what string, prog *isa.Program, scale string, opt CollectOptions) {
	t.Helper()
	got, err := Collect(prog, scale, opt)
	want, werr := oracleCollect(prog, scale, opt)
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("%s: Collect error %v, oracle %v", what, err, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: profile differs from the oracle:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestCollectMatchesOracle holds the profiler to the collector it
// replaced (collect_oracle_test.go) over every registry kernel at two
// scales and two cache families, and over seeded synth programs: the
// profiles must be DeepEqual, so no model prediction can move. Test-scale
// programs run to halt; run-scale ones stop at runBudget, and are left
// out in -short mode and under the race detector.
func TestCollectMatchesOracle(t *testing.T) {
	const runBudget = 1_000_000
	bigL2 := mem.DefaultConfig()
	bigL2.L2.SizeBytes = 1 << 20
	mems := []struct {
		name string
		cfg  mem.Config
	}{{"default", mem.DefaultConfig()}, {"1MB-L2", bigL2}}
	scales := []workload.Scale{workload.ScaleTest, workload.ScaleRun}
	if testing.Short() || raceEnabled {
		scales = scales[:1] // one goroutine: the race detector has nothing to find
	}
	refs := append(oracleKernels(), oracleSynth...)
	for _, ref := range refs {
		for _, sc := range scales {
			prog := buildRef(t, ref, sc)
			for _, m := range mems {
				opt := CollectOptions{Mem: m.cfg, Bpred: bpred.DefaultConfig()}
				if sc == workload.ScaleRun {
					opt.MaxInstr = runBudget
				}
				sameAsOracle(t, fmt.Sprintf("%s/%s/%s", ref, sc, m.name), prog, sc.String(), opt)
			}
		}
	}
}

// zeroProg loads from a cold line into dst, reads Zero into t0, and
// loads through t0 from another cold line. Writing Zero discards the
// loaded value, so the second load's address cannot depend on the first
// miss when dst is Zero.
func zeroProg(dst isa.Reg) *isa.Program {
	return &isa.Program{Name: "zero", StackTop: 0x7fff_fff8, DataBase: 0x10_0000, Code: []isa.Instr{
		{Op: isa.OpLd, Rd: dst, Rs1: isa.GP},
		{Op: isa.OpAddi, Rd: dst, Rs1: dst, Imm: 1},
		{Op: isa.OpAdd, Rd: isa.T0, Rs1: isa.Zero, Rs2: isa.Zero},
		{Op: isa.OpLd, Rd: isa.T1, Rs1: isa.T0, Imm: 4096},
		{Op: isa.OpAdd, Rd: isa.T2, Rs1: isa.T1, Rs2: isa.Zero},
		{Op: isa.OpHalt},
	}}
}

// TestCollectZeroIsNotALiveRegister pins integer register Zero as the
// emulator and the core see it: a write to it leaves no dependence depth
// and no miss taint behind, so a program writing Zero profiles exactly
// like the same program writing a register nothing reads. The collector
// this one replaced carried both through Zero and serialized the second
// miss behind the first.
func TestCollectZeroIsNotALiveRegister(t *testing.T) {
	opt := CollectOptions{Mem: mem.DefaultConfig(), Bpred: bpred.DefaultConfig()}
	got, err := Collect(zeroProg(isa.Zero), "test", opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(zeroProg(isa.T3), "test", opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("writing Zero profiles differently from writing a dead register:\n got %+v\nwant %+v", got, want)
	}
	if got.LongLoadMisses != 2 {
		t.Fatalf("%d long load misses, want 2", got.LongLoadMisses)
	}
	if last := got.SerialMisses[len(got.SerialMisses)-1]; last != 1 {
		t.Errorf("largest window serializes %v misses, want 1: the second miss's address does not depend on the first", last)
	}
	if old, err := oracleCollect(zeroProg(isa.Zero), "test", opt); err != nil || reflect.DeepEqual(got, old) {
		t.Errorf("the oracle read Zero as live and must differ here (err %v)", err)
	}
}

// Byte-generated programs for FuzzCollectMatchesOracle: a two-byte
// header (instruction budget, register seed) and five bytes per
// instruction — an opcode selector, three register bytes and an
// immediate byte — decoded into ALU ops, pointer-chasing loads, stores,
// forward branches, calls and returns over four temporaries, closed by a
// jump back to the top.
const (
	collectFuzzHeader   = 2
	collectFuzzInstrLen = 5
	collectFuzzMaxCode  = 48
)

// collectFuzzOps are the opcodes the generator draws from.
var collectFuzzOps = []isa.Op{
	isa.OpAdd, isa.OpSub, isa.OpAddi, isa.OpAddi, isa.OpMul, isa.OpLi,
	isa.OpFadd, isa.OpFmul, isa.OpFdiv,
	isa.OpLd, isa.OpLd, isa.OpLd, isa.OpFld, isa.OpSt, isa.OpFst,
	isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpJal, isa.OpJr,
}

// decodeCollectFuzz turns the input bytes into a program that never
// names Zero as a destination (the oracle reads Zero as live) and loops
// until its budget runs out.
func decodeCollectFuzz(data []byte) (*isa.Program, uint64, bool) {
	if len(data) < collectFuzzHeader+collectFuzzInstrLen {
		return nil, 0, false
	}
	budget := 1 + 16*uint64(data[0])
	body := data[collectFuzzHeader:]
	n := min(len(body)/collectFuzzInstrLen, collectFuzzMaxCode)
	code := make([]isa.Instr, n)
	// Four temporaries, so values often flow from one instruction to
	// the next; never Zero, and RA, SP and GP only where named below.
	reg := func(b byte) isa.Reg { return isa.T0 + isa.Reg(b%4) }
	for pc := range code {
		b := body[pc*collectFuzzInstrLen:]
		in := isa.Instr{
			Op:  collectFuzzOps[int(b[0])%len(collectFuzzOps)],
			Rd:  reg(b[1] ^ data[1]),
			Rs1: reg(b[2]),
			Rs2: reg(b[3]),
			Imm: int32(int8(b[4])),
		}
		switch in.Op.Class() {
		case isa.ClassLoad, isa.ClassStore:
			// Off GP, off any temporary, or (loads) off the destination:
			// a pointer chase.
			switch b[4] & 3 {
			case 0:
				in.Rs1 = isa.GP
			case 1:
				if in.Op == isa.OpLd {
					in.Rs1 = in.Rd
				}
			}
			in.Imm = int32(b[4]>>2) * 8
		case isa.ClassBranch, isa.ClassJump:
			// Forward only: the closing jump below is the one back edge
			// besides returns, so each pass walks the whole body.
			in.Imm = int32(int(b[4]) % max(n-pc-1, 1))
			switch in.Op {
			case isa.OpJr:
				in.Rs1 = isa.RA
			case isa.OpJal:
				in.Rd = isa.RA
			}
		}
		code[pc] = in
	}
	code[n-1] = isa.Instr{Op: isa.OpJ, Imm: int32(-n)} // loop until the budget runs out
	return &isa.Program{Name: "fuzz", Code: code, Image: fuzzImage, StackTop: 0x7fff_fff8, DataBase: fuzzData}, budget, true
}

// fuzzImage is the generated programs' data: fuzzNodes lines from
// fuzzData on, far more than fuzzMem holds, every word the address of
// another line, so a load off GP yields a pointer and loads through it
// chase long misses whose addresses depend on older ones.
const (
	fuzzData  = 0x10_0000
	fuzzNodes = 4096
)

var fuzzImage = func() *isa.Memory {
	m := isa.NewMemory()
	for w := uint64(0); w < 8*fuzzNodes; w++ {
		m.WriteWord(fuzzData+8*w, fuzzData+64*((w*1597+1)%fuzzNodes))
	}
	m.Freeze()
	return m
}()

// fuzzMem and fuzzBpred are small enough that generated programs miss
// and mispredict often, and cheap to build once per input.
var (
	fuzzMem = mem.Config{
		L1I:       mem.CacheConfig{Name: "L1I", SizeBytes: 512, Assoc: 2, LineBytes: 64},
		L1D:       mem.CacheConfig{Name: "L1D", SizeBytes: 512, Assoc: 2, LineBytes: 64},
		L2:        mem.CacheConfig{Name: "L2", SizeBytes: 4096, Assoc: 2, LineBytes: 64},
		L1Latency: 2, L2Latency: 10, MemLatency: 250,
		TLBEntries: 8, TLBAssoc: 2, TLBPageBytes: 4096, TLBPenalty: 30,
	}
	fuzzBpred = bpred.Config{BimodalEntries: 64, TwoLevelEntries: 64, ChooserEntries: 64, BTBEntries: 16, BTBAssoc: 2, RASEntries: 4}
)

// FuzzCollectMatchesOracle holds the profiler to its oracle over
// generated programs: on any program that never writes Zero, the two
// must produce DeepEqual profiles on a small ladder.
func FuzzCollectMatchesOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 64; i++ {
		seed := make([]byte, collectFuzzHeader+collectFuzzMaxCode*collectFuzzInstrLen)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, budget, ok := decodeCollectFuzz(data)
		if !ok {
			t.Skip()
		}
		for _, in := range prog.Code {
			if d := in.Dest(); d.Valid && !d.FP && d.N == isa.Zero {
				t.Fatalf("generator wrote Zero: %v", in)
			}
		}
		sameAsOracle(t, "fuzz", prog, "test", CollectOptions{MaxInstr: budget, Windows: []int{8, 128, 2048}, Mem: fuzzMem, Bpred: fuzzBpred})
	})
}

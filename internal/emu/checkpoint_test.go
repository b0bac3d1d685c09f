package emu

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"largewindow/internal/isa"
	"largewindow/internal/workload"
)

// checkpointZoo returns programs covering every instruction class the
// checkpoint machinery must reproduce: integer loops, recursion (Jal/Jr
// and the stack), memory traffic, and floating point.
func checkpointZoo() []*isa.Program {
	fib := func() *isa.Program {
		b := isa.NewBuilder("fib")
		f := b.NewLabel()
		b.Li(isa.A0, 14)
		b.Call(f)
		b.Halt()
		b.Bind(f)
		done := b.NewLabel()
		b.Slti(isa.T0, isa.A0, 2)
		b.Bne(isa.T0, isa.Zero, done)
		b.Push(isa.RA, isa.S0, isa.A0)
		b.Addi(isa.A0, isa.A0, -1)
		b.Call(f)
		b.Mov(isa.S0, isa.A0)
		b.Ld(isa.A0, isa.SP, 16)
		b.Addi(isa.A0, isa.A0, -2)
		b.Call(f)
		b.Add(isa.A0, isa.A0, isa.S0)
		b.Ld(isa.RA, isa.SP, 0)
		b.Ld(isa.S0, isa.SP, 8)
		b.Addi(isa.SP, isa.SP, 24)
		b.Bind(done)
		b.Ret()
		return b.MustBuild()
	}
	striding := func() *isa.Program {
		b := isa.NewBuilder("stride")
		const n = 256
		buf := b.AllocWords(n)
		b.LiAddr(isa.A0, buf)
		b.Loop(isa.T0, n, func() {
			b.St(isa.T0, isa.A0, 0)
			b.Addi(isa.A0, isa.A0, 8)
		})
		b.LiAddr(isa.A0, buf)
		b.Li(isa.A1, 0)
		b.Loop(isa.T0, n, func() {
			b.Ld(isa.T1, isa.A0, 0)
			b.Add(isa.A1, isa.A1, isa.T1)
			b.Addi(isa.A0, isa.A0, 8)
		})
		b.Halt()
		return b.MustBuild()
	}
	fp := func() *isa.Program {
		b := isa.NewBuilder("fpkernel")
		const n = 32
		x := b.AllocWords(n)
		for i := uint64(0); i < n; i++ {
			b.SetF64(x+i*8, float64(i)*1.25)
		}
		b.LiAddr(isa.A0, x)
		b.Li(isa.T2, 0)
		b.Fcvt(isa.F0, isa.T2)
		b.Loop(isa.T0, n, func() {
			b.Fld(isa.F1, isa.A0, 0)
			b.Fadd(isa.F0, isa.F0, isa.F1)
			b.Addi(isa.A0, isa.A0, 8)
		})
		b.Halt()
		return b.MustBuild()
	}
	return []*isa.Program{iterativeFactorial(10), fib(), striding(), fp()}
}

// TestRunMatchesStepLoop: the predecoded fast path must be architecturally
// identical to a Step loop on every exercised program.
func TestRunMatchesStepLoop(t *testing.T) {
	for _, prog := range checkpointZoo() {
		fast := New(prog)
		if _, err := fast.Run(1 << 20); err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		slow := New(prog)
		for !slow.Halted {
			if err := slow.Step(); err != nil {
				t.Fatalf("%s: %v", prog.Name, err)
			}
		}
		if fast.Snapshot() != slow.Snapshot() {
			t.Errorf("%s: fast loop diverges from Step loop:\nfast %+v\nslow %+v",
				prog.Name, fast.Snapshot(), slow.Snapshot())
		}
		if fast.CondCount != slow.CondCount || fast.TakenCond != slow.TakenCond {
			t.Errorf("%s: branch stats diverge", prog.Name)
		}
		for c, n := range slow.ClassMix {
			if fast.ClassMix[c] != n {
				t.Errorf("%s: class %v: fast %d, slow %d", prog.Name, c, fast.ClassMix[c], n)
			}
		}
	}
}

// TestCheckpointRestoreRoundTrip is the restore property test: snapshot at
// a random instruction, restore into a fresh machine (directly and through
// a JSON round trip), replay to halt, and require the identical final
// state and stream hash as an uninterrupted run.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, prog := range checkpointZoo() {
		full := New(prog)
		if _, err := full.Run(1 << 20); err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		want := full.Snapshot()

		for trial := 0; trial < 8; trial++ {
			cut := uint64(rng.Int63n(int64(want.InstrCount))) + 1
			head := New(prog)
			if _, err := head.Run(cut); err != nil && !errors.Is(err, ErrNotHalted) {
				t.Fatalf("%s: head run: %v", prog.Name, err)
			}
			cp := head.Checkpoint()

			// Direct restore.
			tail, err := Restore(prog, cp)
			if err != nil {
				t.Fatalf("%s: restore at %d: %v", prog.Name, cut, err)
			}
			if _, err := tail.Run(1 << 20); err != nil {
				t.Fatalf("%s: tail run: %v", prog.Name, err)
			}
			if got := tail.Snapshot(); got != want {
				t.Fatalf("%s: restore at %d diverges:\n got %+v\nwant %+v", prog.Name, cut, got, want)
			}

			// JSON round trip restores identically.
			data, err := json.Marshal(cp)
			if err != nil {
				t.Fatal(err)
			}
			var decoded Checkpoint
			if err := json.Unmarshal(data, &decoded); err != nil {
				t.Fatal(err)
			}
			tail2, err := Restore(prog, &decoded)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tail2.Run(1 << 20); err != nil {
				t.Fatalf("%s: decoded tail run: %v", prog.Name, err)
			}
			if got := tail2.Snapshot(); got != want {
				t.Fatalf("%s: JSON-round-tripped restore at %d diverges", prog.Name, cut)
			}
		}
	}
}

// TestCheckpointClassMixSurvives: the per-class instruction counts resume
// exactly across a checkpoint boundary.
func TestCheckpointClassMixSurvives(t *testing.T) {
	prog := iterativeFactorial(10)
	full := New(prog)
	if _, err := full.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	head := New(prog)
	if _, err := head.Run(7); err != nil && !errors.Is(err, ErrNotHalted) {
		t.Fatal(err)
	}
	tail, err := Restore(prog, head.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tail.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	for c, n := range full.ClassMix {
		if tail.ClassMix[c] != n {
			t.Errorf("class %v: resumed %d, want %d", c, tail.ClassMix[c], n)
		}
	}
	if tail.CondCount != full.CondCount || tail.TakenCond != full.TakenCond {
		t.Error("branch statistics did not survive the checkpoint")
	}
}

// TestBuildCheckpoint: budget-bounded fast-forward is the success path
// (ErrNotHalted is internal), warm rings capture the access stream, and a
// program that halts inside the window yields a halted checkpoint.
func TestBuildCheckpoint(t *testing.T) {
	progs := checkpointZoo()
	cp, err := BuildCheckpoint(progs[2], 200) // striding kernel, mid-run
	if err != nil {
		t.Fatal(err)
	}
	if cp.Halted {
		t.Fatal("striding kernel should not halt within 200 instructions")
	}
	if cp.InstrCount != 200 {
		t.Errorf("InstrCount = %d, want 200", cp.InstrCount)
	}
	mem, fetch, branch := len(cp.Warm.mem.buf), len(cp.Warm.fetch.buf), len(cp.Warm.branch.buf)
	if mem == 0 || fetch == 0 || branch == 0 {
		t.Errorf("warm rings empty: mem=%d fetch=%d branch=%d", mem, fetch, branch)
	}

	halted, err := BuildCheckpoint(iterativeFactorial(3), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !halted.Halted {
		t.Error("skip beyond program length must yield a halted checkpoint")
	}

	zero, err := BuildCheckpoint(progs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if zero.InstrCount != 0 || zero.PC != progs[0].Entry {
		t.Errorf("skip-0 checkpoint not at entry: pc=%d count=%d", zero.PC, zero.InstrCount)
	}
}

// TestCheckpointJSONDeterminism: the encoding is canonical — the same
// checkpoint marshals to the same bytes, and a decode/re-encode cycle is
// byte-stable. The campaign gate diffs cached records on this property.
func TestCheckpointJSONDeterminism(t *testing.T) {
	prog := checkpointZoo()[2]
	cp1, err := BuildCheckpoint(prog, 300)
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := BuildCheckpoint(prog, 300)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := json.Marshal(cp1)
	d2, _ := json.Marshal(cp2)
	if string(d1) != string(d2) {
		t.Error("two identical builds marshal to different bytes")
	}
	if raw, _ := cp1.MarshalJSON(); string(raw) != string(d1) {
		t.Error("json.Marshal rewrote the bytes MarshalJSON returned")
	}
	var decoded Checkpoint
	if err := json.Unmarshal(d1, &decoded); err != nil {
		t.Fatal(err)
	}
	d3, _ := json.Marshal(&decoded)
	if string(d1) != string(d3) {
		t.Error("decode/re-encode is not byte-stable")
	}
}

// TestWarmRingOverflow: rings keep the newest entries, oldest-first.
func TestWarmRingOverflow(t *testing.T) {
	r := ring[uint64]{max: 4}
	for v := uint64(1); v <= 10; v++ {
		r.push(v)
	}
	got := r.seq()
	want := []uint64{7, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("seq len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("seq[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	small := ring[uint64]{max: 4}
	small.push(1)
	small.push(2)
	if s := small.seq(); len(s) != 2 || s[0] != 1 || s[1] != 2 {
		t.Errorf("underfull seq = %v", s)
	}
	off := ring[uint64]{}
	off.push(1)
	if s := off.seq(); len(s) != 0 {
		t.Errorf("disabled ring kept %v", s)
	}
}

// TestDecodedWarmLogKeepsWriteIndex: a WarmLog that went through the
// checkpoint wire format (which linearizes the rings oldest-first) and is
// then pushed into again must evict the same samples as the original.
func TestDecodedWarmLogKeepsWriteIndex(t *testing.T) {
	for _, fill := range []uint64{3, 8, 13} { // underfull, exactly full, wrapped
		orig := NewWarmLog(8, 8, 8)
		for v := uint64(0); v < fill; v++ {
			orig.WarmLoad(v * 8)
			orig.WarmFetch(v * 64)
			orig.WarmBranch(WarmBranch{PC: v, Target: v + 1, Taken: true})
		}
		data, err := json.Marshal(&Checkpoint{Warm: orig})
		if err != nil {
			t.Fatal(err)
		}
		var cp Checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			t.Fatal(err)
		}
		for v := uint64(100); v < 107; v++ {
			for _, w := range []*WarmLog{orig, cp.Warm} {
				w.WarmStore(v * 8)
				w.WarmFetch(v * 64)
				w.WarmBranch(WarmBranch{PC: v, Cond: true})
			}
		}
		if !reflect.DeepEqual(orig.mem.seq(), cp.Warm.mem.seq()) ||
			!reflect.DeepEqual(orig.fetch.seq(), cp.Warm.fetch.seq()) ||
			!reflect.DeepEqual(orig.branch.seq(), cp.Warm.branch.seq()) {
			t.Errorf("fill %d: decoded log diverged after further pushes:\n orig %v\n  got %v",
				fill, orig.mem.seq(), cp.Warm.mem.seq())
		}
	}
}

// warmProbe records replayed warm events for order checks.
type warmProbe struct {
	fetches, loads, stores []uint64
	branches               []WarmBranch
}

func (w *warmProbe) WarmFetch(a uint64)      { w.fetches = append(w.fetches, a) }
func (w *warmProbe) WarmLoad(a uint64)       { w.loads = append(w.loads, a) }
func (w *warmProbe) WarmStore(a uint64)      { w.stores = append(w.stores, a) }
func (w *warmProbe) WarmBranch(b WarmBranch) { w.branches = append(w.branches, b) }

// TestWarmLogReplay: the packed mem ring decodes back into loads and
// stores with their original addresses, and a nil log replays nothing.
func TestWarmLogReplay(t *testing.T) {
	w := NewWarmLog(8, 8, 8)
	w.mem.push(0x1000 << 1)   // load 0x1000
	w.mem.push(0x2008<<1 | 1) // store 0x2008
	w.fetch.push(0x40)
	w.WarmBranch(WarmBranch{PC: 5, Target: 9, Taken: true, Cond: true, BTB: true})
	var probe warmProbe
	w.Replay(&probe)
	if len(probe.loads) != 1 || probe.loads[0] != 0x1000 {
		t.Errorf("loads = %#v", probe.loads)
	}
	if len(probe.stores) != 1 || probe.stores[0] != 0x2008 {
		t.Errorf("stores = %#v", probe.stores)
	}
	if len(probe.fetches) != 1 || probe.fetches[0] != 0x40 {
		t.Errorf("fetches = %#v", probe.fetches)
	}
	if len(probe.branches) != 1 || !probe.branches[0].BTB {
		t.Errorf("branches = %#v", probe.branches)
	}
	var nilLog *WarmLog
	nilLog.Replay(&probe) // must not panic
}

// TestRestoreGuards: program-name mismatches and out-of-range PCs are
// rejected.
func TestRestoreGuards(t *testing.T) {
	prog := iterativeFactorial(5)
	cp, err := BuildCheckpoint(prog, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(checkpointZoo()[1], cp); err == nil {
		t.Error("restore onto a different program must fail")
	}
	bad := *cp
	bad.PC = 1 << 20
	if _, err := Restore(prog, &bad); err == nil {
		t.Error("restore with out-of-range PC must fail")
	}
}

// TestCheckpointGoldenV1 pins the v1 on-disk encoding: the golden file
// must keep decoding (cache compatibility), and a future schema version
// must be rejected, exactly like Records and crash dumps.
func TestCheckpointGoldenV1(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		t.Fatalf("golden v1 checkpoint no longer decodes: %v", err)
	}
	if cp.Bench != "fact" || cp.InstrCount != 10 {
		t.Errorf("golden decode: bench=%q count=%d", cp.Bench, cp.InstrCount)
	}
	// The golden checkpoint must still restore and replay to the same
	// final state as an uninterrupted run.
	prog := iterativeFactorial(10)
	m, err := Restore(prog, &cp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	full := New(prog)
	if _, err := full.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot() != full.Snapshot() {
		t.Error("golden checkpoint replays to a different final state")
	}

	var future map[string]any
	if err := json.Unmarshal(data, &future); err != nil {
		t.Fatal(err)
	}
	future["schema_version"] = 99
	fdata, _ := json.Marshal(future)
	var rejected Checkpoint
	if err := json.Unmarshal(fdata, &rejected); err == nil {
		t.Error("schema version 99 must be rejected")
	}
}

// TestCheckpointDecodeRejectsMalformed: each malformed shape of a
// cached checkpoint file is an error, never a silently different
// checkpoint, and the shapes a valid file may take still decode.
func TestCheckpointDecodeRejectsMalformed(t *testing.T) {
	cp, err := BuildCheckpoint(checkpointZoo()[2], 300)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	// edited decodes valid into a generic map (numbers kept exact),
	// applies edit and re-encodes it.
	edited := func(edit func(map[string]any)) []byte {
		dec := json.NewDecoder(bytes.NewReader(valid))
		dec.UseNumber()
		var w map[string]any
		if err := dec.Decode(&w); err != nil {
			t.Fatal(err)
		}
		edit(w)
		out, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	resize := func(key string, n int) func(map[string]any) {
		return func(w map[string]any) {
			s := w[key].([]any)
			for len(s) < n {
				s = append(s, json.Number("0"))
			}
			w[key] = s[:n]
		}
	}
	without := func(keys ...string) func(map[string]any) {
		return func(w map[string]any) {
			for _, k := range keys {
				delete(w, k)
			}
		}
	}
	for _, tc := range []struct {
		name string
		edit func(map[string]any)
		ok   bool
	}{
		{"as encoded", func(map[string]any) {}, true},
		{"class_mix shorter than NumClasses", resize("class_mix", isa.NumClasses-2), true},
		{"no warm log", without("warm_caps", "warm_mem", "warm_fetch", "warm_branch"), true},
		{"int_reg one short", resize("int_reg", isa.NumRegs-1), false},
		{"int_reg one long", resize("int_reg", isa.NumRegs+1), false},
		{"int_reg missing", without("int_reg"), false},
		{"fp_reg one short", resize("fp_reg", isa.NumRegs-1), false},
		{"fp_reg one long", resize("fp_reg", isa.NumRegs+1), false},
		{"class_mix one long", resize("class_mix", isa.NumClasses+1), false},
		{"warm_caps with two entries", resize("warm_caps", 2), false},
		{"warm_caps with four entries", resize("warm_caps", 4), false},
		{"warm_mem without warm_caps", without("warm_caps", "warm_fetch", "warm_branch"), false},
		{"warm_fetch without warm_caps", without("warm_caps", "warm_mem", "warm_branch"), false},
		{"warm_branch without warm_caps", without("warm_caps", "warm_mem", "warm_fetch"), false},
	} {
		var got Checkpoint
		err := json.Unmarshal(edited(tc.edit), &got)
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

// registryKernels is every registry kernel: the evaluated ones and the
// two the paper omits.
func registryKernels() []string {
	names := workload.Names()
	for _, n := range []string{"health", "ammp"} {
		if s, ok := workload.Get(n); !ok || !s.Omitted {
			panic(fmt.Sprintf("kernel %q is no longer an omitted registry kernel", n))
		}
		names = append(names, n)
	}
	return names
}

// TestBuildCheckpointMatchesFullLog holds BuildCheckpoint to the one-pass
// build in checkpoint_oracle_test.go, byte for byte on the wire, over
// every registry kernel at every scale. The skips straddle warmTail and
// reach past the end of most kernels, so runs that halt early, halt
// late and never halt are all covered. -short and the race detector keep
// test scale only.
func TestBuildCheckpointMatchesFullLog(t *testing.T) {
	scales := []workload.Scale{workload.ScaleTest, workload.ScaleRun, workload.ScaleFull}
	if testing.Short() || raceEnabled {
		scales = scales[:1] // the builds share nothing: the race detector has nothing to find
	}
	for _, name := range registryKernels() {
		spec, _ := workload.Get(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, sc := range scales {
				prog := spec.Build(sc)
				skips := []uint64{0, 1, warmTail - 1, warmTail + 1, 10_000_000}
				if sc == workload.ScaleFull {
					skips = append(skips, 40_000_000)
				}
				for _, skip := range skips {
					want, wantErr := oracleBuildCheckpoint(prog, skip)
					got, err := BuildCheckpoint(prog, skip)
					sameCheckpoint(t, fmt.Sprintf("%s/skip=%d", sc, skip), got, want, err, wantErr)
				}
			}
		})
	}
}

// sameCheckpoint fails unless both builds failed alike or both encode
// to the same bytes. It calls MarshalJSON directly: json.Marshal returns
// those bytes after a compaction pass that leaves them as they are
// (TestCheckpointJSONDeterminism) and would double the cost of a
// multi-megabyte image.
func sameCheckpoint(t *testing.T, what string, got, want *Checkpoint, err, wantErr error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, want %v", what, err, wantErr)
	}
	if wantErr != nil {
		return
	}
	g, err := got.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(g, w) {
		return
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	lo := max(0, i-40)
	t.Fatalf("%s: checkpoint bytes differ at offset %d of %d/%d:\n got …%s\nwant …%s",
		what, i, len(g), len(w), g[lo:min(len(g), i+40)], w[lo:min(len(w), i+40)])
}

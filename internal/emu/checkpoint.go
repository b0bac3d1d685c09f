package emu

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"largewindow/internal/isa"
	"largewindow/internal/schema"
)

// This file implements full restorable checkpoints: the complete
// architectural state of a functional run (registers, memory image,
// PC/instruction count, stream hash) plus a bounded log of the recent
// access stream for warming a timing core's caches, TLB, and branch
// predictor. A checkpoint depends only on (program, skip count) — never
// on a processor configuration — so one functional pass is shared by
// every configuration measuring the same window (gem5's
// AtomicSimpleCPU→O3CPU switch, SimpleScalar's sim-outorder fastfwd).

// Default warm-ring capacities. The rings only need to cover the largest
// structures they warm: 32K data accesses comfortably refill a 256KB L2
// (4K lines) and the D-TLB, 8K fetch lines cover any L1I, and 16K branch
// outcomes saturate 4K-entry direction tables and a 2K-entry BTB.
const (
	DefaultWarmMem    = 32768
	DefaultWarmFetch  = 8192
	DefaultWarmBranch = 16384
)

// warmTail is how many instructions at the end of a fast-forward feed
// the warm log; the rest run bare. Stopped just before its halt, or 40M
// instructions in, every registry kernel at run and full scale fills all
// three rings within its last 1.1M instructions (facerec takes longest),
// so 4M leaves room; where it does not suffice, BuildCheckpoint logs the
// whole skip instead.
const warmTail = 1 << 22

// ring is a bounded overwrite-oldest ring of samples. buf grows by
// append until it holds max samples; from then on w, the wrapping write
// index, is both where the next sample lands and where the oldest one sits.
type ring[T any] struct {
	buf []T
	max int
	w   int
}

func (r *ring[T]) push(v T) {
	if r.w < len(r.buf) {
		r.buf[r.w] = v
		r.w++
		if r.w == r.max {
			r.w = 0
		}
		return
	}
	r.grow(v)
}

// grow is push while the ring is still filling (w == len(buf) < max), or
// disabled (max <= 0).
func (r *ring[T]) grow(v T) {
	if r.max <= 0 {
		return
	}
	r.buf = append(r.buf, v)
	r.w = len(r.buf) % r.max
}

// halves returns the retained samples oldest-first as two views of buf,
// copying nothing: buf[w:], then buf[:w]. While the ring is filling, w is
// len(buf) and the first view is empty.
func (r *ring[T]) halves() [2][]T { return [2][]T{r.buf[r.w:], r.buf[:r.w]} }

// seq returns a copy of the retained samples oldest-first.
func (r *ring[T]) seq() []T {
	h := r.halves()
	return append(append(make([]T, 0, len(r.buf)), h[0]...), h[1]...)
}

// load fills an empty ring with samples given oldest-first. It then holds
// what pushing each in turn would, in the same order, but allocates
// nothing: the ring keeps the newest max of them in vs itself.
func (r *ring[T]) load(vs []T) {
	if r.max <= 0 || len(vs) == 0 {
		return
	}
	if extra := len(vs) - r.max; extra > 0 {
		vs = vs[extra:]
	}
	r.buf, r.w = vs, len(vs)%r.max
}

// WarmBranch is one recorded control-transfer outcome. BTB marks
// transfers that train the branch target buffer at commit (taken, and not
// an indirect jump — mirroring Predictor.Commit).
type WarmBranch struct {
	PC     uint64
	Target uint64
	Taken  bool
	Cond   bool // conditional branch: trains the direction tables
	BTB    bool
}

// branchRec is a WarmBranch as the branch ring and the checkpoint wire
// format hold it: three words, so the run loop records one with three
// stores from registers.
type branchRec struct{ pc, target, flags uint64 }

const (
	brTaken = 1 << iota
	brCond
	brBTB
)

func packBranch(b WarmBranch) branchRec {
	r := branchRec{pc: b.PC, target: b.Target}
	if b.Taken {
		r.flags |= brTaken
	}
	if b.Cond {
		r.flags |= brCond
	}
	if b.BTB {
		r.flags |= brBTB
	}
	return r
}

func (r branchRec) unpack() WarmBranch {
	return WarmBranch{
		PC: r.pc, Target: r.target,
		Taken: r.flags&brTaken != 0, Cond: r.flags&brCond != 0, BTB: r.flags&brBTB != 0,
	}
}

// WarmLog captures the tail of a functional run's access stream in three
// bounded rings: data accesses (address plus load/store kind),
// instruction-fetch line addresses, and branch outcomes. The rings are
// configuration-independent — they record WHAT the program touched, and
// Replay trains whatever geometry the restoring configuration has.
type WarmLog struct {
	mem    ring[uint64] // addr<<1 | storeBit (data addresses are 8-byte aligned)
	fetch  ring[uint64] // 64-byte-aligned instruction line addresses
	branch ring[branchRec]
}

// NewWarmLog builds a warm log with the given ring capacities (entries).
// Zero or negative capacity disables that ring.
func NewWarmLog(memCap, fetchCap, branchCap int) *WarmLog {
	return &WarmLog{
		mem:    ring[uint64]{max: memCap},
		fetch:  ring[uint64]{max: fetchCap},
		branch: ring[branchRec]{max: branchCap},
	}
}

// full reports whether every ring holds its capacity. A log fed by one
// run call over the tail of a longer run then holds what a log of the
// whole run would: each ring keeps only its newest entries, so nothing
// from before the tail is left in a full one. That holds for the fetch
// ring too, though a run call pushes its first instruction line whatever
// line ran before it: when that push is one the whole run did not make,
// it repeats the whole run's last push before the tail, which is the
// line the tail begins in.
func (w *WarmLog) full() bool {
	return len(w.mem.buf) >= w.mem.max && len(w.fetch.buf) >= w.fetch.max && len(w.branch.buf) >= w.branch.max
}

// WarmSink receives a functional access stream — either a warm log's
// replay or the emulator's live stream (Machine.RunSink). The timing core
// implements it over its cache hierarchy and branch predictor with
// stat-free warm-touch operations.
type WarmSink interface {
	WarmFetch(lineAddr uint64)
	WarmLoad(addr uint64)
	WarmStore(addr uint64)
	WarmBranch(b WarmBranch)
}

// WarmLog itself is a WarmSink, so ring capture (BuildCheckpoint) and full-history
// streaming (RunSink) enter the same run loop; the loop recognises a
// WarmLog and stores into its rings without the interface call.
func (w *WarmLog) WarmFetch(lineAddr uint64) { w.fetch.push(lineAddr) }

// WarmLoad records a data load address.
func (w *WarmLog) WarmLoad(addr uint64) { w.mem.push(addr << 1) }

// WarmStore records a data store address.
func (w *WarmLog) WarmStore(addr uint64) { w.mem.push(addr<<1 | 1) }

// WarmBranch records a control-transfer outcome.
func (w *WarmLog) WarmBranch(b WarmBranch) { w.branch.push(packBranch(b)) }

// Replay feeds the retained access stream into a sink, oldest-first per
// ring (fetch lines, then data accesses, then branches). It walks each
// ring in place.
func (w *WarmLog) Replay(s WarmSink) {
	if w == nil {
		return
	}
	for _, h := range w.fetch.halves() {
		for _, a := range h {
			s.WarmFetch(a)
		}
	}
	for _, h := range w.mem.halves() {
		for _, a := range h {
			if a&1 == 1 {
				s.WarmStore(a >> 1)
			} else {
				s.WarmLoad(a >> 1)
			}
		}
	}
	for _, h := range w.branch.halves() {
		for _, b := range h {
			s.WarmBranch(b.unpack())
		}
	}
}

// Checkpoint is the full restorable state of a functional run: enough to
// reconstruct a Machine mid-execution exactly (unlike State, which is a
// comparable digest with only a memory checksum). It embeds the
// machine's archState, so registers, PC and counts read as cp.PC,
// cp.InstrCount and so on. Checkpoints serialize to schema-versioned
// JSON (schema.CheckpointVersion) for the campaign store.
type Checkpoint struct {
	Bench string // program name, guarded at restore
	archState
	Mem  *isa.Memory
	Warm *WarmLog // may be nil (no warm capture)
}

// Checkpoint captures the machine's complete architectural state: its
// archState as one value, and its memory image as a frozen copy-on-write
// snapshot — O(pages) to take, not O(bytes) — so the machine may keep
// running (its first write to each page copies it) and the checkpoint
// may be restored any number of times, concurrently.
func (m *Machine) Checkpoint() *Checkpoint {
	cp := m.Handover()
	cp.Mem.Freeze()
	return cp
}

// Handover captures the machine's state as Checkpoint does, for one
// restore alone: its memory image is the same copy-on-write clone, left
// unfrozen, so the restore takes the image over instead of cloning it
// again, and a second restore of the checkpoint fails. The sampler hands
// each window one (gem5's functional → detailed hand-over).
func (m *Machine) Handover() *Checkpoint {
	return &Checkpoint{Bench: m.Prog.Name, archState: m.archState, Mem: m.Mem.Clone()}
}

// Image checks that the checkpoint fits prog and returns the memory
// image a restore of it runs on. prog must be the program the checkpoint
// was taken from: the name is checked, and the PC must lie in its code
// unless the checkpoint halted; byte-level identity is the caller's
// responsibility, as programs are built deterministically from
// (benchmark, scale). These are the only checks that a checkpoint fits a
// program, for Restore and for a timing core alike
// (core.Processor.RestoreCheckpoint).
//
// The image's frozen bit says who owns it. A frozen image is shared
// (Checkpoint, BuildCheckpoint, UnmarshalJSON): each call returns a
// fresh copy-on-write clone of it and leaves the checkpoint intact. An
// unfrozen one has one holder (Handover): the call takes it over and
// leaves cp.Mem nil, so a second call returns an error.
func (cp *Checkpoint) Image(prog *isa.Program) (*isa.Memory, error) {
	if cp.Bench != "" && prog.Name != cp.Bench {
		return nil, fmt.Errorf("emu: checkpoint for %q restored onto program %q", cp.Bench, prog.Name)
	}
	if !cp.Halted && cp.PC >= uint64(len(prog.Code)) {
		return nil, fmt.Errorf("emu: checkpoint pc %d outside code segment (len %d)", cp.PC, len(prog.Code))
	}
	switch img := cp.Mem; {
	case img == nil:
		return nil, fmt.Errorf("emu: checkpoint of %s at %d has no memory image (a handed-over checkpoint restores once)", cp.Bench, cp.InstrCount)
	case img.Frozen():
		return img.Clone(), nil
	default:
		cp.Mem = nil
		return img, nil
	}
}

// Restore reconstructs a Machine at the checkpointed state, running the
// given program, on the memory image Image returns: a copy-on-write clone
// of a shared (frozen) image, or a handed-over image itself, which only
// the first restore of its checkpoint gets.
func Restore(prog *isa.Program, cp *Checkpoint) (*Machine, error) {
	img, err := cp.Image(prog)
	if err != nil {
		return nil, err
	}
	return &Machine{Prog: prog, Mem: img, archState: cp.archState}, nil
}

// BuildCheckpoint runs a fresh machine for skip instructions and
// checkpoints the result with a warm log of the run's access stream. A
// program that halts before the skip target yields a halted checkpoint
// (the measured window is then empty); only genuine execution faults
// return an error.
//
// Only the last warmTail instructions feed the warm log; the ones before
// them run on the bare loop Run uses. The checkpoint is byte for byte the
// one logging the whole skip would give: the rings keep only their newest
// entries, and where the tail does not fill them the whole skip is logged
// after all (buildCheckpoint).
func BuildCheckpoint(prog *isa.Program, skip uint64) (*Checkpoint, error) {
	return buildCheckpoint(prog, skip, warmTail)
}

// buildCheckpoint is BuildCheckpoint with the warm tail as a parameter.
// If the tail did not fill every ring (WarmLog.full) — the program halted
// before or early in it, or it ran too few loads, stores, branches or
// fetch lines — the run repeats from the start with the whole skip logged.
func buildCheckpoint(prog *isa.Program, skip, tail uint64) (*Checkpoint, error) {
	if skip <= tail {
		return fastForward(prog, skip, skip)
	}
	cp, err := fastForward(prog, skip, tail)
	if err != nil || cp.Warm.full() {
		return cp, err
	}
	return fastForward(prog, skip, skip)
}

// fastForward runs a fresh machine for skip instructions, the last logged
// of them into a fresh warm log, and checkpoints it with that log.
func fastForward(prog *isa.Program, skip, logged uint64) (*Checkpoint, error) {
	m := New(prog)
	w := NewWarmLog(DefaultWarmMem, DefaultWarmFetch, DefaultWarmBranch)
	_, err := m.run(skip-logged, nil, nil)
	if err == nil || errors.Is(err, ErrNotHalted) {
		_, err = m.run(logged, w, nil) // returns at once if the prefix halted
	}
	if err != nil && !errors.Is(err, ErrNotHalted) {
		return nil, fmt.Errorf("emu: fast-forward of %s: %w", prog.Name, err)
	}
	cp := m.Checkpoint()
	cp.Warm = w
	return cp, nil
}

// --- JSON encoding -----------------------------------------------------

// pageWire is one memory page: its index and the base64 of its words in
// little-endian order.
type pageWire struct {
	Index uint64 `json:"i"`
	Words string `json:"w"`
}

// checkpointWire is the serialized checkpoint form. Rings are linearized
// oldest-first and packed as base64 little-endian uint64 streams; branch
// records pack (pc, target, flags) as three words each.
type checkpointWire struct {
	SchemaVersion int    `json:"schema_version"`
	Bench         string `json:"bench"`
	PC            uint64 `json:"pc"`
	InstrCount    uint64 `json:"instr_count"`
	Halted        bool   `json:"halted,omitempty"`
	StreamHash    uint64 `json:"stream_hash"`
	TakenCond     uint64 `json:"taken_cond"`
	CondCount     uint64 `json:"cond_count"`

	IntReg   []uint64 `json:"int_reg"`
	FPReg    []uint64 `json:"fp_reg"`
	ClassMix []uint64 `json:"class_mix"`

	Pages []pageWire `json:"pages"`

	WarmCaps   []int  `json:"warm_caps,omitempty"` // mem, fetch, branch ring capacities
	WarmMem    string `json:"warm_mem,omitempty"`
	WarmFetch  string `json:"warm_fetch,omitempty"`
	WarmBranch string `json:"warm_branch,omitempty"`
}

// packWords encodes a uint64 slice as base64(little-endian bytes).
func packWords(ws []uint64) string {
	buf := make([]byte, 8*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// unpackWords decodes packWords output.
func unpackWords(s string) ([]uint64, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("emu: packed word stream of %d bytes", len(buf))
	}
	out := make([]uint64, len(buf)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return out, nil
}

// MarshalJSON stamps the checkpoint with the current schema version.
func (cp *Checkpoint) MarshalJSON() ([]byte, error) {
	w := checkpointWire{
		SchemaVersion: schema.CheckpointVersion,
		Bench:         cp.Bench,
		PC:            cp.PC,
		InstrCount:    cp.InstrCount,
		Halted:        cp.Halted,
		StreamHash:    cp.StreamHash,
		TakenCond:     cp.TakenCond,
		CondCount:     cp.CondCount,
		IntReg:        cp.IntReg[:],
		FPReg:         cp.FPReg[:],
		ClassMix:      cp.ClassMix[:],
	}
	if cp.Mem != nil {
		for _, idx := range cp.Mem.PageList() {
			w.Pages = append(w.Pages, pageWire{Index: idx, Words: packWords(cp.Mem.PageWords(idx))})
		}
	}
	if cp.Warm != nil {
		w.WarmCaps = []int{cp.Warm.mem.max, cp.Warm.fetch.max, cp.Warm.branch.max}
		w.WarmMem = packWords(cp.Warm.mem.seq())
		w.WarmFetch = packWords(cp.Warm.fetch.seq())
		br := cp.Warm.branch.seq()
		packed := make([]uint64, 0, 3*len(br))
		for _, b := range br {
			packed = append(packed, b.pc, b.target, b.flags)
		}
		w.WarmBranch = packWords(packed)
	}
	return json.Marshal(&w)
}

// UnmarshalJSON decodes a checkpoint, rejecting schema versions newer
// than this reader understands and malformed files: register arrays of
// any length but isa.NumRegs, more class counts than isa.NumClasses
// (fewer are zero-filled: classes may be appended), warm-ring capacities
// that are not three, and warm-ring data that comes without them.
func (cp *Checkpoint) UnmarshalJSON(data []byte) error {
	var w checkpointWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if err := schema.Check(w.SchemaVersion, schema.CheckpointVersion, "emu checkpoint"); err != nil {
		return err
	}
	out := Checkpoint{
		Bench: w.Bench,
		archState: archState{
			PC:         w.PC,
			InstrCount: w.InstrCount,
			Halted:     w.Halted,
			StreamHash: w.StreamHash,
			TakenCond:  w.TakenCond,
			CondCount:  w.CondCount,
		},
		Mem: isa.NewMemory(),
	}
	if len(w.IntReg) != isa.NumRegs || len(w.FPReg) != isa.NumRegs || len(w.ClassMix) > isa.NumClasses {
		return fmt.Errorf("emu: checkpoint has %d/%d registers (want %d) and %d class counts (at most %d)",
			len(w.IntReg), len(w.FPReg), isa.NumRegs, len(w.ClassMix), isa.NumClasses)
	}
	if len(w.WarmCaps) != 0 && len(w.WarmCaps) != 3 {
		return fmt.Errorf("emu: checkpoint has %d warm ring capacities, want 3", len(w.WarmCaps))
	}
	if len(w.WarmCaps) == 0 && w.WarmMem+w.WarmFetch+w.WarmBranch != "" {
		return errors.New("emu: checkpoint has warm ring data but no ring capacities")
	}
	copy(out.IntReg[:], w.IntReg)
	copy(out.FPReg[:], w.FPReg)
	copy(out.ClassMix[:], w.ClassMix)
	for _, pg := range w.Pages {
		words, err := unpackWords(pg.Words)
		if err != nil {
			return fmt.Errorf("emu: checkpoint page %d: %w", pg.Index, err)
		}
		if len(words) != isa.PageBytes/8 {
			return fmt.Errorf("emu: checkpoint page %d has %d words", pg.Index, len(words))
		}
		out.Mem.SetPage(pg.Index, words)
	}
	// Decoded checkpoints are shared across concurrent restorers exactly
	// like freshly built ones; freeze the image so COW clones are safe.
	out.Mem.Freeze()
	if len(w.WarmCaps) == 3 {
		warm := NewWarmLog(w.WarmCaps[0], w.WarmCaps[1], w.WarmCaps[2])
		mem, err := unpackWords(w.WarmMem)
		if err != nil {
			return fmt.Errorf("emu: checkpoint warm mem ring: %w", err)
		}
		warm.mem.load(mem)
		fetch, err := unpackWords(w.WarmFetch)
		if err != nil {
			return fmt.Errorf("emu: checkpoint warm fetch ring: %w", err)
		}
		warm.fetch.load(fetch)
		br, err := unpackWords(w.WarmBranch)
		if err != nil {
			return fmt.Errorf("emu: checkpoint warm branch ring: %w", err)
		}
		if len(br)%3 != 0 {
			return fmt.Errorf("emu: checkpoint warm branch ring of %d words", len(br))
		}
		recs := make([]branchRec, len(br)/3)
		for i := range recs {
			recs[i] = branchRec{pc: br[3*i], target: br[3*i+1], flags: br[3*i+2] & (brTaken | brCond | brBTB)}
		}
		warm.branch.load(recs)
		out.Warm = warm
	}
	*cp = out
	return nil
}

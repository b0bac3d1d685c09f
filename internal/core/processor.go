package core

import (
	"context"
	"errors"

	"largewindow/internal/bpred"
	"largewindow/internal/emu"
	"largewindow/internal/heap"
	"largewindow/internal/isa"
	"largewindow/internal/mem"
)

// stage is the lifecycle state of an in-flight instruction.
type stage uint8

const (
	stFree     stage = iota
	stWaiting        // in an issue queue, operands not yet satisfied
	stRequest        // in an issue queue, requesting issue
	stInWIB          // parked in the WIB, load miss outstanding
	stEligible       // in the WIB, load completed, awaiting reinsertion
	stIssued         // executing (or load access outstanding)
	stDone           // executed, awaiting in-order commit
)

// noReg marks an absent register operand or destination.
const noReg int32 = -1

// robEntry is one active-list slot. The same index names the
// instruction's WIB slot (WIB entries are allocated in program order with
// the active list, §3.3).
type robEntry struct {
	seq   uint64
	pc    uint64
	in    isa.Instr
	class isa.Class
	stage stage

	archDest int8 // -1 when the instruction has no destination
	destFP   bool
	newPhys  int32
	oldPhys  int32
	src1Phys int32
	src2Phys int32
	src1FP   bool
	src2FP   bool

	waitCount int8 // unsatisfied source operands
	intIQ     bool // which issue queue holds it

	isBranch     bool
	pred         bpred.Pred
	bpCp         bpred.Checkpoint
	actualTaken  bool
	actualTarget uint64
	resolved     bool

	lq        int32 // load queue slot, -1
	sq        int32 // store queue slot, -1
	awaitData bool  // issued store waiting for its data operand
	addrDone  bool  // issued store whose address has resolved

	wibCol     int32 // bit-vector column holding it while stInWIB, -1
	ownCol     int32 // bit-vector column this load miss allocated, -1
	insertions int   // how many times it entered the WIB

	done bool // result produced
}

// waiter records an issue-queue entry waiting on a register; seq guards
// against slot reuse.
type waiter struct {
	rob int32
	seq uint64
}

// Waiter lists are cut from shared blocks instead of growing one append
// at a time: a register's first waiter claims waiterSlabCap entries of the
// current block (rename and freePhys keep the backing array from then on),
// and a list that outgrows its share moves, in order, to a share twice as
// large cut the same way. A block holds waiterBlockRegs first shares. A
// run therefore allocates one block per 256 first shares (less the larger
// shares) it ever cuts — nothing at New, which the sampled tier calls
// hundreds of times a pass — and no list grows by reallocating unless
// it outgrows a whole block.
const (
	waiterSlabCap   = 4
	waiterBlockRegs = 256
)

// addWaiter registers rob as waiting on register r.
func (p *Processor) addWaiter(r *physReg, rob int32, seq uint64) {
	if len(r.waiters) == cap(r.waiters) {
		r.waiters = p.waiterShare(r.waiters)
	}
	r.waiters = append(r.waiters, waiter{rob: rob, seq: seq})
}

// waiterShare moves a full waiter list to a new share of the current
// block: waiterSlabCap entries for a register's first, twice the old
// capacity after that. The share is capacity-limited, so the list never
// runs into the next share; what the old one held is left unused.
func (p *Processor) waiterShare(ws []waiter) []waiter {
	const block = waiterBlockRegs * waiterSlabCap
	n := max(2*cap(ws), waiterSlabCap)
	if n > block {
		return ws // longer than a block: append grows it
	}
	if len(p.waiterBlock) < n {
		p.waiterBlock = make([]waiter, block)
	}
	share := append(p.waiterBlock[:0:n], ws...)
	p.waiterBlock = p.waiterBlock[n:]
	return share
}

// Processor is one simulated machine instance running one program.
type Processor struct {
	cfg  Config
	prog *isa.Program
	// dec is prog's decode table (class and operand references per static
	// instruction), shared with the emulator and indexed by pc.
	dec []isa.Decoded

	// Committed architectural state (the golden-comparable part).
	memory *isa.Memory

	// Physical registers and renaming: the integer space, then the
	// floating-point one.
	regs [2]regSpace
	// waiterBlock is the unclaimed tail of the current waiter block.
	waiterBlock []waiter

	// Active list.
	rob      []robEntry
	robHead  int32
	robTail  int32
	robCount int32
	nextSeq  uint64

	// Front end.
	fetchPC       uint64
	fetchStall    int64 // no fetch before this cycle
	fetchHalted   bool  // a Halt has been fetched on the current path
	ifq           []ifqEntry
	ifqHead, ifqN int32

	// Issue.
	intIQ  *issueQueue
	fpIQ   *issueQueue
	fus    fuPools
	events eventQueue
	// heldFill is the first cycle on which a bit-vector-held load's line
	// may hit the probe, because a fill it may be waiting for completes:
	// issue wakes those holds then (farFuture: none pending).
	heldFill int64

	// Memory system.
	hier *mem.Hierarchy
	lsq  *lsq
	sw   *storeWait

	// Prediction.
	bp *bpred.Predictor

	wib *wib // nil when disabled

	tracer *tracer // nil unless Config.TraceCapacity > 0

	// tel is nil unless a telemetry collector is attached. Its three
	// probes (the sampler tick, the fast-forward catch-up and the
	// load-latency histogram) guard on that nil; every counter series is
	// read from a field the core keeps anyway (see telemetry.go).
	tel *telemetryState
	// issueSlots counts issue slots consumed, moves into the WIB included:
	// the one pipeline series Stats has no field for and nothing else
	// implies.
	issueSlots uint64

	// l2MissReady holds the fill-completion cycles of outstanding demand-
	// load L2 misses, for the MLP statistic (min-heap, pruned per cycle).
	l2MissReady heap.Heap[int64]

	// oracle is the lockstep architectural emulator (Config.LockstepOracle):
	// every committed instruction is stepped and compared, so a timing-core
	// bug that corrupts architectural state is caught at the first wrong
	// commit instead of at end-of-run.
	oracle *emu.Machine

	// ring records recent low-frequency pipeline events (recoveries,
	// replays, evictions, fault injections) for crash dumps.
	ring eventRing

	now    int64
	halted bool

	// Idle-cycle fast-forward diagnostics (see fastforward.go).
	ffCycles int64
	ffJumps  int64

	stats Stats
}

type ifqEntry struct {
	pc       uint64
	in       isa.Instr
	isBranch bool
	pred     bpred.Pred
	cp       bpred.Checkpoint
	fetched  int64 // cycle the instruction entered the fetch queue
}

// New builds a processor for the given program, cold: a fresh cache
// hierarchy, branch predictor and memory image, at program entry.
func New(cfg Config, prog *isa.Program) (*Processor, error) {
	return newProcessor(cfg, prog, Window{})
}

// newProcessor builds a processor around the state window w brings: its
// hierarchy and predictor are w.Hier and w.Bpred, and a cold one is built
// only for each that w leaves nil. With w.Start set the memory image (and
// the lockstep oracle) are left to RestoreCheckpoint, which takes them
// from the checkpoint; without it they are the program's own at entry.
func newProcessor(cfg Config, prog *isa.Program, w Window) (*Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Processor{
		cfg:  cfg,
		prog: prog,
		dec:  prog.Decoded(),
		regs: [2]regSpace{newRegSpace(cfg, cfg.IntRegs, false), newRegSpace(cfg, cfg.FPRegs, true)},
		rob:  make([]robEntry, cfg.ActiveList),
		ifq:  make([]ifqEntry, cfg.IFQSize),
		hier: w.Hier,
		bp:   w.Bpred,
		sw:   newStoreWait(cfg.StoreWaitEntries, cfg.StoreWaitClearInterval),

		heldFill: farFuture,
	}
	if p.hier == nil {
		p.hier = mem.NewHierarchy(cfg.Mem)
	}
	if p.bp == nil {
		p.bp = bpred.New(cfg.Bpred)
	}
	if w.Start == nil {
		p.memory = prog.NewMemoryImage()
		if cfg.LockstepOracle {
			p.oracle = emu.New(prog)
		}
	}
	p.intIQ = newIssueQueue(cfg.IntIQSize, cfg.ActiveList)
	p.fpIQ = newIssueQueue(cfg.FPIQSize, cfg.ActiveList)
	p.fus = newFUPools(cfg)
	p.lsq = newLSQ(cfg.LoadQueue, cfg.StoreQueue)
	p.l2MissReady = heap.NewWithCapacity(int64Before, 16)

	p.regs[0].arch(int(isa.SP)).value = prog.StackTop
	p.regs[0].arch(int(isa.GP)).value = prog.DataBase

	if cfg.WIB != nil {
		p.wib = newWIB(*cfg.WIB, cfg.ActiveList, cfg.LoadQueue)
	}
	if cfg.TraceCapacity > 0 {
		p.tracer = newTracer(cfg.TraceCapacity)
	}
	p.fetchPC = prog.Entry
	p.rob[0].seq = 0
	p.nextSeq = 1
	return p, nil
}

// ErrBudget is returned by Run when the cycle or instruction budget is
// exhausted before the program halts.
var ErrBudget = errors.New("core: budget exhausted before halt")

// ErrDeadlock is returned when the machine makes no progress for an
// implausibly long time — always a simulator bug, never a valid outcome.
var ErrDeadlock = errors.New("core: no commit progress (pipeline deadlock)")

// Run simulates until the program's Halt commits, an instruction budget is
// reached, or maxCycles elapses. It returns the statistics either way.
func (p *Processor) Run(maxInstr uint64, maxCycles int64) (*Stats, error) {
	return p.RunContext(context.Background(), maxInstr, maxCycles)
}

// RunContext is Run with cooperative cancellation: the context is polled
// every deadlineCheckCycles cycles, and an expired deadline aborts the run
// with a structured (transient) SimError instead of burning the full cycle
// budget. Any invariant panic raised inside the core is recovered into a
// *SimError carrying the failure kind, cycle, sequence number, a pipeline
// dump, and the recent-event ring; non-simulator panics are recovered the
// same way with their stack attached, so one corrupted configuration can
// never take down a whole experiment sweep.
func (p *Processor) RunContext(ctx context.Context, maxInstr uint64, maxCycles int64) (st *Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.stats.finish(p.now, p.cfg)
			st, err = &p.stats, p.recoveredError(r)
		}
	}()
	watchdog := p.cfg.DeadlockCycles
	if watchdog == 0 {
		watchdog = defaultDeadlockCycles
	}
	done := ctx.Done()
	lastCommit := p.stats.Committed
	lastProgress := p.now
	ff := p.fastForwardEnabled()
	for !p.halted {
		if (maxInstr > 0 && p.stats.Committed >= maxInstr) || (maxCycles > 0 && p.now >= maxCycles) {
			p.stats.finish(p.now, p.cfg)
			return &p.stats, ErrBudget
		}
		if done != nil && p.now%deadlineCheckCycles == 0 {
			select {
			case <-done:
				p.stats.finish(p.now, p.cfg)
				se := p.newSimError(KindDeadline, 0, "run cancelled: "+ctx.Err().Error())
				se.Transient = true
				se.base = ctx.Err()
				return &p.stats, se
			default:
			}
		}
		p.cycle()
		if p.stats.Committed != lastCommit {
			lastCommit = p.stats.Committed
			lastProgress = p.now
		} else if watchdog > 0 && p.now-lastProgress > watchdog {
			p.stats.finish(p.now, p.cfg)
			return &p.stats, p.deadlockError(lastProgress)
		}
		if ff && !p.halted && (maxInstr == 0 || p.stats.Committed < maxInstr) {
			// Jump to just before the next cycle that can do work. The
			// limit keeps the budget check and the watchdog firing at
			// exactly the cycles they would fire at without skipping; a
			// met instruction budget stops the run before any skip.
			limit := farFuture
			if watchdog > 0 {
				limit = lastProgress + watchdog + 1
			}
			if maxCycles > 0 && maxCycles < limit {
				limit = maxCycles
			}
			p.fastForward(limit)
		}
	}
	p.stats.finish(p.now, p.cfg)
	return &p.stats, nil
}

// deadlineCheckCycles is how often RunContext polls its context.
const deadlineCheckCycles = 4096

// cycle advances the machine one clock.
func (p *Processor) cycle() {
	p.now++
	if p.sw.tick(p.now) {
		p.intIQ.wakeHeld(holdStoreWait)
	}
	p.processEvents()
	if p.halted {
		return
	}
	p.commit()
	if p.halted {
		return
	}
	p.issue()
	p.dispatch()
	p.fetch()
	p.stats.Cycles = p.now
	if p.robCount > 0 {
		p.stats.robOccupancy += uint64(p.robCount)
		p.stats.occupancySamples++
	}
	if p.l2MissReady.Len() > 0 {
		p.accountMLP()
	}
	if p.tel != nil {
		p.tel.col.Tick(p.now)
	}
	if p.cfg.Debug {
		p.checkInvariants()
	}
}

// liveEntry validates that (rob, seq) still names the same instruction.
func (p *Processor) liveEntry(rob int32, seq uint64) *robEntry {
	e := &p.rob[rob]
	if e.stage == stFree || e.seq != seq {
		return nil
	}
	return e
}

// space returns the register space an operand with the given FP flag
// names; pr one of its physical registers.
func (p *Processor) space(fp bool) *regSpace {
	if fp {
		return &p.regs[1]
	}
	return &p.regs[0]
}

func (p *Processor) pr(fp bool, idx int32) *physReg { return &p.space(fp).pr[idx] }

// readOperand returns the current value of a source operand; idx == noReg
// reads as zero (absent operand or the hardwired integer zero register).
func (p *Processor) readOperand(fp bool, idx int32) uint64 {
	if idx == noReg {
		return 0
	}
	return p.pr(fp, idx).value
}

// processEvents applies all completions scheduled for this cycle. Branch
// resolutions are collected and the oldest misprediction (if any) triggers
// a single recovery.
func (p *Processor) processEvents() {
	var worst *robEntry
	var worstIdx int32
	for {
		ev, ok := p.events.popDue(p.now)
		if !ok {
			break
		}
		e := p.liveEntry(ev.rob, ev.seq)
		if e == nil {
			continue // squashed; slot reused or free
		}
		switch ev.kind {
		case evExecDone:
			p.completeExec(ev.rob, e)
		case evLoadDone:
			p.completeLoad(ev.rob, e)
		}
		if e.isBranch && e.resolved && p.mispredictedEntry(e) {
			if worst == nil || e.seq < worst.seq {
				worst = e
				worstIdx = ev.rob
			}
		}
	}
	if worst != nil && p.liveEntry(worstIdx, worst.seq) != nil {
		p.recoverBranch(worstIdx)
	}
}

// mispredictedEntry reports whether a resolved branch disagrees with its
// prediction (direction or target).
func (p *Processor) mispredictedEntry(e *robEntry) bool {
	if e.actualTaken != e.pred.Taken {
		return true
	}
	return e.actualTaken && e.actualTarget != e.pred.Target
}

// completeExec finishes a non-load instruction: write the destination,
// wake dependents, resolve branches, publish store addresses (which can
// trigger replay traps). A store whose data operand is still outstanding
// stays issued until the data arrives.
func (p *Processor) completeExec(rob int32, e *robEntry) {
	if e.newPhys != noReg {
		p.writeResult(e, p.execValue(e))
	}
	p.traceCompleted(e)
	if e.sq != noReg {
		p.storeAddressResolved(e)
		e.addrDone = true
		if p.lsq.store(e.sq).dataOK {
			e.done = true
			e.stage = stDone
		}
		return
	}
	e.done = true
	e.stage = stDone
	if e.isBranch {
		p.resolveBranch(rob, e)
	}
}

// execValue computes an instruction's result from its operand values via
// the shared ISA semantics.
func (p *Processor) execValue(e *robEntry) uint64 {
	rs1 := p.readOperand(e.src1FP, e.src1Phys)
	rs2 := p.readOperand(e.src2FP, e.src2Phys)
	return isa.Eval(e.in, rs1, rs2, e.pc)
}

// writeResult deposits a value in the destination register, clears its
// wait bit, notes the write for the register-file model, and wakes
// waiters.
func (p *Processor) writeResult(e *robEntry, v uint64) {
	r := p.pr(e.destFP, e.newPhys)
	r.value = v
	r.ready = true
	r.clearWait()
	p.rf(e.destFP).Wrote(int(e.newPhys), p.now)
	p.wakeWaiters(e.destFP, e.newPhys, false)
}

// resolveBranch computes the actual outcome of a branch at execute.
func (p *Processor) resolveBranch(rob int32, e *robEntry) {
	rs1 := p.readOperand(e.src1FP, e.src1Phys)
	rs2 := p.readOperand(e.src2FP, e.src2Phys)
	switch e.in.Op {
	case isa.OpJr:
		e.actualTaken = true
		e.actualTarget = rs1
	case isa.OpJ, isa.OpJal:
		e.actualTaken = true
		e.actualTarget = e.in.Target(e.pc)
	default:
		e.actualTaken = isa.BranchTaken(e.in, rs1, rs2)
		e.actualTarget = e.in.Target(e.pc)
	}
	e.resolved = true
}

// commit retires completed instructions in program order.
func (p *Processor) commit() {
	for n := 0; n < p.cfg.CommitWidth && p.robCount > 0; n++ {
		idx := p.robHead
		e := &p.rob[idx]
		if e.stage != stDone || !e.done {
			return
		}
		if p.oracle != nil {
			p.checkOracle(e)
		}
		p.stats.Committed++
		p.stats.StreamHash = emu.MixHash(p.stats.StreamHash, e.pc)
		p.stats.classMix[e.class]++
		if p.tracer != nil {
			p.trace(e, func(t *InstrTrace, now int64) { t.Committed = now })
			p.tracer.archive(e.seq)
		}

		switch {
		case e.class == isa.ClassHalt:
			p.halted = true
			p.note("halt", e.seq, e.pc)
		case e.sq != noReg:
			p.commitStore(e)
		case e.lq != noReg:
			p.lsq.releaseLoad(e.lq)
		}
		if e.isBranch {
			p.bp.Commit(e.pc, e.in, e.bpCp, e.actualTaken, e.actualTarget)
			if e.class == isa.ClassBranch {
				p.stats.CondBranches++
				if e.pred.Taken == e.actualTaken {
					p.stats.CondCorrect++
				}
			}
		}
		if e.insertions > 0 {
			// WIBInsertions itself is counted at park time (so it also sees
			// squashed work); only the per-instruction aggregates accrue here.
			p.stats.WIBInstructions++
			if e.insertions > p.stats.WIBMaxInsertions {
				p.stats.WIBMaxInsertions = e.insertions
			}
		}
		// Advance the retirement map and free the previous mapping of the
		// architectural destination.
		if e.newPhys != noReg {
			s := p.space(e.destFP)
			s.ret[e.archDest] = e.newPhys
			if e.oldPhys != noReg {
				s.release(e.oldPhys)
			}
		}
		e.stage = stFree
		p.robHead = (p.robHead + 1) % int32(len(p.rob))
		p.robCount--
		if p.halted {
			return
		}
	}
}

// commitStore performs the architectural memory write and the cache
// access for a retiring store.
func (p *Processor) commitStore(e *robEntry) {
	s := p.lsq.store(e.sq)
	p.memory.WriteWord(s.addr, s.data)
	p.noteL1DFill(p.hier.Store(s.addr, p.now))
	p.lsq.releaseStore(e.sq)
}

// checkOracle steps the lockstep architectural emulator for one commit
// and raises a typed divergence panic (recovered by Run into a SimError
// naming the seq, pc, and both values) at the first disagreement.
func (p *Processor) checkOracle(e *robEntry) {
	m := p.oracle
	if m.PC != e.pc {
		throw(KindOracleDivergence, e.seq,
			"committed pc %d but oracle expects pc %d (seq %d, %s)", e.pc, m.PC, e.seq, e.in.String())
	}
	if err := m.Step(); err != nil {
		throw(KindOracleDivergence, e.seq, "oracle step failed at pc %d: %v", e.pc, err)
	}
	if e.newPhys != noReg {
		got := p.pr(e.destFP, e.newPhys).value
		want := m.IntReg[e.archDest]
		if e.destFP {
			want = m.FPReg[e.archDest]
		}
		if got != want {
			throw(KindOracleDivergence, e.seq,
				"seq %d pc %d (%s): committed value %#x, oracle has %#x", e.seq, e.pc, e.in.String(), got, want)
		}
	}
}

// ArchState extracts the committed architectural state for golden-model
// comparison. Valid after Run returns.
func (p *Processor) ArchState() emu.State {
	var st emu.State
	for a := 0; a < isa.NumRegs; a++ {
		st.IntReg[a] = p.regs[0].committed(a)
		st.FPReg[a] = p.regs[1].committed(a)
	}
	st.IntReg[isa.Zero] = 0
	st.MemChecksum = p.memory.Checksum()
	st.InstrCount = p.stats.Committed
	st.StreamHash = p.stats.StreamHash
	st.Halted = p.halted
	return st
}

// Stats returns the current statistics (final after Run).
func (p *Processor) Statistics() *Stats { return &p.stats }

// Hierarchy exposes the memory system for stats reporting.
func (p *Processor) Hierarchy() *mem.Hierarchy { return p.hier }

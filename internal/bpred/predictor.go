package bpred

import (
	"fmt"

	"largewindow/internal/isa"
	"largewindow/internal/telemetry"
)

// Config sizes the whole front-end prediction unit.
type Config struct {
	BimodalEntries  int
	TwoLevelEntries int
	ChooserEntries  int
	BTBEntries      int
	BTBAssoc        int
	RASEntries      int
}

// DefaultConfig returns the predictor the paper's base machine uses
// (bimodal & two-level adaptive combined; Table 1).
func DefaultConfig() Config {
	return Config{
		BimodalEntries:  4096,
		TwoLevelEntries: 4096,
		ChooserEntries:  4096,
		BTBEntries:      2048,
		BTBAssoc:        4,
		RASEntries:      32,
	}
}

// Validate checks the geometry New would otherwise panic on.
func (c Config) Validate() error {
	for _, t := range [3]struct {
		name    string
		entries int
	}{{"bimodal", c.BimodalEntries}, {"two-level", c.TwoLevelEntries}, {"chooser", c.ChooserEntries}} {
		if t.entries <= 0 || t.entries&(t.entries-1) != 0 {
			return fmt.Errorf("bpred: %s entries (%d) must be a positive power of two", t.name, t.entries)
		}
	}
	if sets := c.BTBEntries / max(c.BTBAssoc, 1); c.BTBAssoc <= 0 || sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("bpred: BTB set count (%d entries / %d ways) is not a positive power of two", c.BTBEntries, c.BTBAssoc)
	}
	if c.RASEntries <= 0 {
		return fmt.Errorf("bpred: RAS size (%d) must be positive", c.RASEntries)
	}
	return nil
}

// Pred is the outcome of one prediction.
type Pred struct {
	Taken  bool   // predicted direction (always true for jumps)
	Target uint64 // predicted next PC when taken
	BTBHit bool   // the BTB supplied the target at fetch
}

// Checkpoint records the speculative state a prediction modified, so
// recovery can undo it (history-based fixup + pointer-and-data RAS
// repair).
type Checkpoint struct {
	GHR      uint32
	BimPred  bool
	GlobPred bool
	Cond     bool // direction history was touched
	RAS      RASRepair
	HasRAS   bool
}

// Predictor owns the speculative global history register and composes the
// combined direction predictor, BTB, and RAS.
type Predictor struct {
	comb    *Combined
	btb     *BTB
	ras     *RAS
	ghr     uint32
	ghrMask uint32

	Predicts uint64 // control transfers predicted (fetch-order)
}

// New builds a predictor.
func New(cfg Config) *Predictor {
	comb := NewCombined(cfg.BimodalEntries, cfg.TwoLevelEntries, cfg.ChooserEntries)
	return &Predictor{
		comb:    comb,
		btb:     NewBTB(cfg.BTBEntries, cfg.BTBAssoc),
		ras:     NewRAS(cfg.RASEntries),
		ghrMask: uint32(1)<<comb.Glob.HistBits - 1,
	}
}

// Predict produces the prediction for the control transfer `in` at pc and
// speculatively updates history and the RAS. It must be called exactly
// once per fetched control transfer, in fetch order.
func (p *Predictor) Predict(pc uint64, in isa.Instr) (Pred, Checkpoint) {
	p.Predicts++
	var pr Pred
	var cp Checkpoint
	switch in.Op {
	case isa.OpJr:
		pr.Taken = true
		var rep RASRepair
		pr.Target, rep = p.ras.Pop()
		cp = Checkpoint{RAS: rep, HasRAS: true}
	case isa.OpJal:
		pr.Taken = true
		pr.Target = in.Target(pc)
		_, pr.BTBHit = p.btb.Lookup(pc)
		rep := p.ras.Push(pc + 1)
		cp = Checkpoint{RAS: rep, HasRAS: true}
	case isa.OpJ:
		pr.Taken = true
		pr.Target = in.Target(pc)
		_, pr.BTBHit = p.btb.Lookup(pc)
	default:
		if !in.Op.IsCondBranch() {
			panic(fmt.Sprintf("bpred: Predict on non-branch %v", in))
		}
		pred, bim, glob := p.comb.Lookup(pc, p.ghr)
		cp = Checkpoint{GHR: p.ghr, BimPred: bim, GlobPred: glob, Cond: true}
		pr.Taken = pred
		pr.Target = in.Target(pc)
		if pred {
			_, pr.BTBHit = p.btb.Lookup(pc)
		}
		p.ghr = (p.ghr<<1 | b2u32(pred)) & p.ghrMask
	}
	return pr, cp
}

// Squash undoes the speculative effects in cp. During recovery the core
// calls it for every squashed branch and for the resolving branch itself,
// youngest first.
func (p *Predictor) Squash(cp Checkpoint) {
	if cp.Cond {
		p.ghr = cp.GHR
	}
	if cp.HasRAS {
		p.ras.Repair(cp.RAS)
	}
}

// Redo re-applies the resolving branch's speculative effect with its
// actual outcome, after Squash has restored the pre-branch state.
func (p *Predictor) Redo(pc uint64, in isa.Instr, cp Checkpoint, taken bool) {
	switch in.Op {
	case isa.OpJr:
		p.ras.Pop()
	case isa.OpJal:
		p.ras.Push(pc + 1)
	default:
		if cp.Cond {
			p.ghr = (cp.GHR<<1 | b2u32(taken)) & p.ghrMask
		}
	}
}

// Commit trains the direction tables and the BTB with the architectural
// outcome. Called in program order at retire.
func (p *Predictor) Commit(pc uint64, in isa.Instr, cp Checkpoint, taken bool, target uint64) {
	if cp.Cond {
		p.comb.Update(pc, cp.GHR, taken, cp.BimPred, cp.GlobPred)
	}
	if taken && in.Op != isa.OpJr {
		p.btb.Insert(pc, target)
	}
}

// AttachTelemetry registers the predictor's traffic counters with a
// telemetry registry.
func (p *Predictor) AttachTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("bpred.predicts", func() uint64 { return p.Predicts })
	reg.CounterFunc("bpred.btb.lookups", func() uint64 { return p.btb.Lookups })
	reg.CounterFunc("bpred.btb.hits", func() uint64 { return p.btb.Hits })
}

// Clone returns a deep, independent copy of the predictor: direction
// tables, chooser, BTB, RAS, and history. Sampled simulation hands each
// interval's detailed core a clone of the persistently warmed predictor,
// so in-window speculation — and the abandoned in-flight tail left when
// an interval's budget expires — can never contaminate the warm state
// later intervals inherit.
func (p *Predictor) Clone() *Predictor {
	q := *p
	q.comb = &Combined{
		Bim: &Bimodal{
			table: append([]uint8(nil), p.comb.Bim.table...),
			mask:  p.comb.Bim.mask,
		},
		Glob: &TwoLevel{
			pht:      append([]uint8(nil), p.comb.Glob.pht...),
			mask:     p.comb.Glob.mask,
			HistBits: p.comb.Glob.HistBits,
		},
		choice: append([]uint8(nil), p.comb.choice...),
		mask:   p.comb.mask,
	}
	btb := *p.btb
	btb.tags = append([]uint64(nil), p.btb.tags...)
	btb.targets = append([]uint64(nil), p.btb.targets...)
	btb.valid = append([]bool(nil), p.btb.valid...)
	btb.lru = append([]uint64(nil), p.btb.lru...)
	q.btb = &btb
	ras := *p.ras
	ras.stack = append([]uint64(nil), p.ras.stack...)
	q.ras = &ras
	return &q
}

// BTBStats reports BTB lookups and hits.
func (p *Predictor) BTBStats() (lookups, hits uint64) { return p.btb.Lookups, p.btb.Hits }

// GHR exposes the current speculative history (for tests).
func (p *Predictor) GHR() uint32 { return p.ghr }

// RASTop exposes the current predicted return address (for tests).
func (p *Predictor) RASTop() uint64 { return p.ras.Top() }

func b2u32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

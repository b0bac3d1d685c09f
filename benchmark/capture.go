package main

import (
	"errors"

	"largewindow"
	"largewindow/internal/emu"
)

// Kinds of captured events.
const (
	evFetch = iota
	evLoad
	evStore
	evBranch
)

// event is one access or control transfer of a program's functional
// stream. For a branch, a is the PC and b the target.
type event struct {
	kind  uint8
	taken bool
	cond  bool
	btb   bool
	prog  uint16 // index into capture.progs
	a, b  uint64
}

// capture is an emu.WarmSink that keeps a workload's real address and
// branch stream, so the mem and bpred probes replay real traffic through
// those layers' public calls: the layers are otherwise only reachable
// inside core.RunContext. It keeps the first max events and drops the
// rest.
type capture struct {
	events []event
	progs  []*largewindow.Program
	max    int
	mems   int // loads + stores + fetches captured
	brs    int // branches captured
}

func newCapture(max int) *capture { return &capture{max: max} }

func (c *capture) push(ev event) {
	if len(c.events) >= c.max {
		return
	}
	ev.prog = uint16(len(c.progs) - 1)
	c.events = append(c.events, ev)
	if ev.kind == evBranch {
		c.brs++
	} else {
		c.mems++
	}
}

func (c *capture) WarmFetch(line uint64) { c.push(event{kind: evFetch, a: line}) }
func (c *capture) WarmLoad(addr uint64)  { c.push(event{kind: evLoad, a: addr}) }
func (c *capture) WarmStore(addr uint64) { c.push(event{kind: evStore, a: addr}) }
func (c *capture) WarmBranch(b emu.WarmBranch) {
	c.push(event{kind: evBranch, a: b.PC, b: b.Target, taken: b.Taken, cond: b.Cond, btb: b.BTB})
}

func (c *capture) full() bool { return len(c.events) >= c.max }

// add emulates the first maxInstr instructions of prog into the capture.
func (c *capture) add(prog *largewindow.Program, maxInstr uint64) error {
	if c.full() {
		return nil
	}
	c.progs = append(c.progs, prog)
	if _, err := emu.New(prog).RunSink(maxInstr, c); err != nil && !errors.Is(err, emu.ErrNotHalted) {
		return err
	}
	return nil
}

// captureOf captures the streams of the given sources, each bounded like
// the workload's own cells, until the capture is full.
func captureOf(srcs []largewindow.Workload, scale largewindow.Scale, maxInstr uint64, maxEvents int) (*capture, error) {
	c := newCapture(maxEvents)
	for _, src := range srcs {
		prog, err := src.Build(scale)
		if err != nil {
			return nil, err
		}
		if err := c.add(prog, maxInstr); err != nil {
			return nil, err
		}
	}
	return c, nil
}

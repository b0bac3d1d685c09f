package core

// The row-chunk arena the WIB's bit-vector columns kept their rows in
// before each column became a list of its parked slots (wib.go), kept as
// the differential oracle: each column is a chain of fixed-size chunks of
// (slot, seq) rows in deposit order, drawn from one shared arena, and
// completing a column walks the chain and keeps the rows whose
// instruction is still parked on that column — stale rows (squashed, or
// the slot reused) are dropped there. TestWIBColumnsMatchChunkOracle holds
// the lists to it.

import (
	"math/rand"
	"slices"
	"testing"

	"largewindow/internal/isa"
)

const oracleChunkRows = 32

type oracleChunk struct {
	rows [oracleChunkRows]wibRow
	n    int32
	next int32 // next chunk of the column, or of the free list; -1 ends
}

type oracleColumn struct {
	head, tail int32 // chunk chain, -1 when empty
	n          int   // rows deposited, stale ones included
}

type chunkOracle struct {
	cols      []oracleColumn
	chunks    []oracleChunk
	freeChunk int32
}

func newChunkOracle(nCols int) *chunkOracle {
	o := &chunkOracle{cols: make([]oracleColumn, nCols), freeChunk: -1}
	for i := range o.cols {
		o.cols[i].head, o.cols[i].tail = -1, -1
	}
	return o
}

// deposit appends a row to column c's chain.
func (o *chunkOracle) deposit(c int32, r wibRow) {
	col := &o.cols[c]
	if col.tail == -1 || o.chunks[col.tail].n == oracleChunkRows {
		k := o.freeChunk
		if k != -1 {
			o.freeChunk = o.chunks[k].next
		} else {
			k = int32(len(o.chunks))
			o.chunks = append(o.chunks, oracleChunk{})
		}
		o.chunks[k].n, o.chunks[k].next = 0, -1
		if col.tail == -1 {
			col.head = k
		} else {
			o.chunks[col.tail].next = k
		}
		col.tail = k
	}
	ch := &o.chunks[col.tail]
	ch.rows[ch.n] = r
	ch.n++
	col.n++
}

// drop returns column c's whole chain to the free list.
func (o *chunkOracle) drop(c int32) {
	col := &o.cols[c]
	if col.head != -1 {
		o.chunks[col.tail].next = o.freeChunk
		o.freeChunk = col.head
	}
	col.head, col.tail, col.n = -1, -1, 0
}

// live is the completion walk's filter: the rows of column c whose
// instruction is still parked on c, in deposit order.
func (o *chunkOracle) live(p *Processor, c int32) []wibRow {
	var out []wibRow
	for k := o.cols[c].head; k != -1; k = o.chunks[k].next {
		ch := &o.chunks[k]
		for _, r := range ch.rows[:ch.n] {
			if e := p.liveEntry(r.rob, r.seq); e != nil && e.stage == stInWIB && e.wibCol == c {
				out = append(out, r)
			}
		}
	}
	return out
}

// eligibleCount counts the active list's stEligible entries.
func eligibleCount(p *Processor) int {
	n := 0
	for i := int32(0); i < p.robCount; i++ {
		if p.rob[(p.robHead+i)%int32(len(p.rob))].stage == stEligible {
			n++
		}
	}
	return n
}

// TestWIBColumnsMatchChunkOracle drives a WIB through its production entry
// points (park, completeColumn, releaseColumn, reinsert, squashFrom) with
// seeded random sequences, shadowing every deposit in the chunk oracle.
// Each completing column must make eligible exactly the oracle's live rows
// — in deposit order, which the pool-of-blocks organization's FIFO shows —
// and every active column's deposit count must match the oracle's, which
// the pool's block accounting reads. The per-cycle invariants run after
// every step.
func TestWIBColumnsMatchChunkOracle(t *testing.T) {
	prog := WIBConfigSized(256, 0)
	prog.Name = "WIB/256-program-order"
	prog.WIB.Banked = false
	prog.WIB.Policy = PolicyProgramOrder
	for _, cfg := range []Config{WIBPoolOfBlocks(256, 16, 8), WIBConfigSized(256, 0), prog} {
		t.Run(cfg.Name, func(t *testing.T) {
			b := isa.NewBuilder("idle")
			b.Halt()
			p, err := New(cfg, b.MustBuild())
			if err != nil {
				t.Fatal(err)
			}
			w := p.wib
			d := &bankedDriver{t: t, p: p, rng: rand.New(rand.NewSource(int64(len(cfg.Name))))}
			o := newChunkOracle(len(w.cols))
			var cols []int32
			forget := func(i int) {
				o.drop(cols[i])
				cols[i] = cols[len(cols)-1]
				cols = cols[:len(cols)-1]
			}
			completed, maxLive := 0, 0
			for step := 0; step < 30_000; step++ {
				switch r := d.rng.Intn(100); {
				case r < 30:
					d.dispatch()
				case r < 50:
					for n := 1 + d.rng.Intn(6); n > 0; n-- {
						idx, e, ok := d.queued()
						if !ok {
							break
						}
						d.leaveQueue(idx, e)
						c := int32(-1)
						if len(cols) > 0 && d.rng.Intn(10) < 8 {
							if c = cols[d.rng.Intn(len(cols))]; !w.blockAvailable(c) {
								c = -1 // the pool is out of blocks: a spill
							}
						}
						w.park(p, idx, e, c)
						if c >= 0 {
							o.deposit(c, wibRow{rob: idx, seq: e.seq})
						}
					}
				case r < 55:
					if len(cols) < 12 {
						if c, ok := w.allocColumn(p.nextSeq); ok {
							cols = append(cols, c)
						}
					}
				case r < 63:
					if len(cols) == 0 {
						break
					}
					i := d.rng.Intn(len(cols))
					c := cols[i]
					want := o.live(p, c)
					fifo, before := len(w.chainFIFO), eligibleCount(p)
					w.completeColumn(p, c)
					if cfg.WIB.Org == OrgPoolOfBlocks {
						if got := w.chainFIFO[fifo:]; !slices.Equal(got, want) {
							t.Fatalf("step %d column %d: completion queued %v, oracle's live rows in deposit order are %v", step, c, got, want)
						}
					}
					for _, r := range want {
						if e := p.liveEntry(r.rob, r.seq); e == nil || e.stage != stEligible {
							t.Fatalf("step %d column %d: live row %v did not become eligible", step, c, r)
						}
					}
					if after := eligibleCount(p); after-before != len(want) {
						t.Fatalf("step %d column %d: %d entries became eligible, the oracle has %d live rows", step, c, after-before, len(want))
					}
					completed++
					maxLive = max(maxLive, len(want))
					forget(i)
				case r < 65: // a load that parked nothing is squashed, or did not trigger
					if i := len(cols) - 1; i >= 0 && len(o.live(p, cols[i])) == 0 {
						w.releaseColumn(cols[i])
						forget(i)
					}
				case r < 80:
					p.now++
					w.reinsert(p, cfg.DecodeWidth)
				case r < 95:
					d.commit()
				default:
					if p.robCount > 0 {
						p.squashFrom(p.rob[d.slot(d.rng.Int31n(p.robCount))].seq, true)
					}
				}
				for _, c := range cols {
					if w.cols[c].n != o.cols[c].n {
						t.Fatalf("step %d column %d: %d deposits counted, oracle has %d", step, c, w.cols[c].n, o.cols[c].n)
					}
				}
				p.checkInvariants()
			}
			t.Logf("%d columns completed, largest live set %d rows", completed, maxLive)
			if completed == 0 || maxLive < oracleChunkRows {
				t.Errorf("completion went unexercised past one chunk: %d completions, largest %d rows", completed, maxLive)
			}
		})
	}
}

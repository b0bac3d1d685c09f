package isa

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMemoryZeroFill(t *testing.T) {
	m := NewMemory()
	if got := m.ReadWord(0x1234560); got != 0 {
		t.Errorf("fresh memory read = %d, want 0", got)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	m.WriteWord(64, 0xdead)
	m.WriteWord(72, 0xbeef)
	m.WriteWord(64+PageBytes*3, 77) // distant page
	if got := m.ReadWord(64); got != 0xdead {
		t.Errorf("read(64) = %#x", got)
	}
	if got := m.ReadWord(72); got != 0xbeef {
		t.Errorf("read(72) = %#x", got)
	}
	if got := m.ReadWord(64 + PageBytes*3); got != 77 {
		t.Errorf("distant page read = %d", got)
	}
	m.WriteWord(64, 1)
	if got := m.ReadWord(64); got != 1 {
		t.Errorf("overwrite read = %d", got)
	}
}

func TestMemoryF64(t *testing.T) {
	m := NewMemory()
	m.WriteF64(8, 3.5)
	if got := m.ReadF64(8); got != 3.5 {
		t.Errorf("ReadF64 = %g", got)
	}
}

func TestMemoryCloneIsDeep(t *testing.T) {
	m := NewMemory()
	m.WriteWord(16, 5)
	c := m.Clone()
	c.WriteWord(16, 9)
	if m.ReadWord(16) != 5 {
		t.Error("clone write leaked into original")
	}
	if c.ReadWord(16) != 9 {
		t.Error("clone write lost")
	}
}

func TestMemoryChecksumProperties(t *testing.T) {
	// Checksum must be order-independent and insensitive to zero writes.
	cfg := &quick.Config{MaxCount: 50}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(100)
		addrs := make([]uint64, n)
		vals := make([]uint64, n)
		for i := range addrs {
			addrs[i] = uint64(r.Intn(1<<20)) &^ 7
			vals[i] = r.Uint64()
		}
		a := NewMemory()
		for i := range addrs {
			a.WriteWord(addrs[i], vals[i])
		}
		b := NewMemory()
		for i := n - 1; i >= 0; i-- {
			// Rebuild the final contents (later writes win in a, so replay
			// only the last write per address).
			final := make(map[uint64]uint64)
			for j := range addrs {
				final[addrs[j]] = vals[j]
			}
			for addr, v := range final {
				b.WriteWord(addr, v)
			}
			break
		}
		// Touch extra zero pages in b; they must not change the sum.
		b.WriteWord(1<<30, 0)
		return a.Checksum() == b.Checksum()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMemoryChecksumDetectsDifference(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	a.WriteWord(8, 1)
	b.WriteWord(8, 2)
	if a.Checksum() == b.Checksum() {
		t.Error("different contents, same checksum")
	}
	c := NewMemory()
	c.WriteWord(16, 1) // same value, different address
	if a.Checksum() == c.Checksum() {
		t.Error("different addresses, same checksum")
	}
}

// refMemory is the map-per-page Memory this package shipped before the
// page table, kept verbatim as the oracle of TestMemoryDifferential.
type refMemory struct {
	pages  map[uint64][]uint64
	shared map[uint64]bool
	frozen bool
}

func newRefMemory() *refMemory { return &refMemory{pages: make(map[uint64][]uint64)} }

func (m *refMemory) ReadWord(addr uint64) uint64 {
	pg, ok := m.pages[addr/PageBytes]
	if !ok {
		return 0
	}
	return pg[addr%PageBytes/8]
}

func (m *refMemory) WriteWord(addr, val uint64) {
	if m.frozen {
		panic("ref: write to frozen memory")
	}
	p := addr / PageBytes
	pg, ok := m.pages[p]
	if !ok {
		pg = make([]uint64, wordsPerPage)
		m.pages[p] = pg
	} else if m.shared != nil && m.shared[p] {
		npg := make([]uint64, wordsPerPage)
		copy(npg, pg)
		m.pages[p] = npg
		delete(m.shared, p)
		pg = npg
	}
	pg[addr%PageBytes/8] = val
}

func (m *refMemory) Clone() *refMemory {
	c := &refMemory{
		pages:  make(map[uint64][]uint64, len(m.pages)),
		shared: make(map[uint64]bool, len(m.pages)),
	}
	for p, pg := range m.pages {
		c.pages[p] = pg
		c.shared[p] = true
	}
	if !m.frozen {
		if m.shared == nil {
			m.shared = make(map[uint64]bool, len(m.pages))
		}
		for p := range m.pages {
			m.shared[p] = true
		}
	}
	return c
}

func (m *refMemory) Checksum() uint64 {
	var sum uint64
	for p, pg := range m.pages {
		for i, w := range pg {
			if w != 0 {
				h := (p*PageBytes+uint64(i)*8)*0x9e3779b97f4a7c15 ^ w
				h ^= h >> 29
				h *= 0xbf58476d1ce4e5b9
				h ^= h >> 32
				sum += h
			}
		}
	}
	return sum
}

func (m *refMemory) PageList() []uint64 {
	out := make([]uint64, 0, len(m.pages))
	for p := range m.pages {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *refMemory) PageWords(page uint64) []uint64 {
	pg, ok := m.pages[page]
	if !ok {
		return nil
	}
	return append([]uint64(nil), pg...)
}

func (m *refMemory) SetPage(page uint64, words []uint64) {
	if m.frozen {
		panic("ref: SetPage on frozen memory")
	}
	m.pages[page] = append([]uint64(nil), words...)
	if m.shared != nil {
		delete(m.shared, page)
	}
}

// diffAddr draws from the addresses where the page table has edges: the
// builder's heap and stack, the first and last word of a page, the last
// page of one leaf and the first of the next, the end of the table at
// 4 GB, pages beyond it, and anything at all. The draws are clustered so
// that reads, writes and clones keep meeting on the same pages.
func diffAddr(r *rand.Rand) uint64 {
	const leafBytes = leafPages * PageBytes
	const tableBytes = tablePages * PageBytes
	word := uint64(r.Intn(4)) * 8
	if r.Intn(3) == 0 {
		word = PageBytes - 8 - word
	}
	page := uint64(r.Intn(3)) * PageBytes
	switch r.Intn(8) {
	case 0:
		return HeapBase + page + word
	case 1:
		return StackBase - 3*PageBytes + page + word
	case 2:
		return uint64(1+r.Intn(3))*leafBytes - PageBytes + page + word
	case 3:
		return tableBytes - 2*PageBytes + page + word // straddles the table's end
	case 4:
		return uint64(1+r.Intn(4))<<32 + page + word
	case 5:
		return page + word // the nil-pointer pages
	case 6:
		return r.Uint64() &^ 7
	default:
		return HeapBase + uint64(r.Intn(64))*8
	}
}

// memPair is one Memory under test and its oracle.
type memPair struct {
	m     *Memory
	ref   *refMemory
	depth int // clones between this memory and the root
}

func (p memPair) compare() error {
	if got, want := p.m.PageList(), p.ref.PageList(); !slices.Equal(got, want) {
		return fmt.Errorf("PageList = %v, oracle %v", got, want)
	}
	if got, want := p.m.Pages(), len(p.ref.pages); got != want {
		return fmt.Errorf("Pages = %d, oracle %d", got, want)
	}
	words := 0
	for _, pg := range p.ref.PageList() {
		got, want := p.m.PageWords(pg), p.ref.PageWords(pg)
		if !slices.Equal(got, want) {
			return fmt.Errorf("PageWords(%d) differ from the oracle", pg)
		}
		for _, w := range want {
			if w != 0 {
				words++
			}
		}
	}
	if p.m.PageWords(^uint64(0)>>13) != nil {
		return fmt.Errorf("PageWords of an untouched page is not nil")
	}
	if got, want := p.m.Checksum(), p.ref.Checksum(); got != want {
		return fmt.Errorf("Checksum = %#x, oracle %#x", got, want)
	}
	if got := p.m.NonZeroWords(); got != words {
		return fmt.Errorf("NonZeroWords = %d, oracle %d", got, words)
	}
	prev, first := uint64(0), true
	var err error
	p.m.EachWord(func(a, v uint64) {
		if (!first && a <= prev) || v == 0 || v != p.ref.ReadWord(a) {
			err = fmt.Errorf("EachWord visited (%#x, %#x) after %#x; oracle holds %#x", a, v, prev, p.ref.ReadWord(a))
		}
		prev, first = a, false
	})
	return err
}

// panics reports whether f panicked.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// diffMemory drives a pool of Memory/refMemory pairs with one seeded random
// operation stream and returns the first disagreement. afterClone, if set,
// is applied to the parent Memory after every Clone (the mutation hook).
// It also returns the deepest clone chain it built.
func diffMemory(seed int64, steps int, afterClone func(*Memory)) (maxDepth int, err error) {
	r := rand.New(rand.NewSource(seed))
	pool := []memPair{{m: NewMemory(), ref: newRefMemory()}}
	for step := 0; step < steps; step++ {
		i := r.Intn(len(pool))
		p := pool[i]
		fail := func(format string, args ...any) (int, error) {
			return maxDepth, fmt.Errorf("seed %d step %d mem %d: %s", seed, step, i, fmt.Sprintf(format, args...))
		}
		switch op := r.Intn(20); {
		case op < 7:
			a := diffAddr(r)
			pages := p.m.Pages()
			if got, want := p.m.ReadWord(a), p.ref.ReadWord(a); got != want {
				return fail("ReadWord(%#x) = %#x, oracle %#x", a, got, want)
			}
			if p.m.Pages() != pages {
				return fail("ReadWord(%#x) allocated a page", a)
			}
		case op < 14:
			a, v := diffAddr(r), r.Uint64()
			if r.Intn(4) == 0 {
				v = 0
			}
			if p.ref.frozen {
				if !panics(func() { p.m.WriteWord(a, v) }) {
					return fail("WriteWord(%#x) on a frozen memory did not panic", a)
				}
				break
			}
			p.m.WriteWord(a, v)
			p.ref.WriteWord(a, v)
		case op < 15:
			words := make([]uint64, wordsPerPage)
			for k := 0; k < 8; k++ {
				words[r.Intn(wordsPerPage)] = r.Uint64()
			}
			pg := diffAddr(r) / PageBytes
			if p.ref.frozen {
				if !panics(func() { p.m.SetPage(pg, words) }) {
					return fail("SetPage(%d) on a frozen memory did not panic", pg)
				}
				break
			}
			p.m.SetPage(pg, words)
			p.ref.SetPage(pg, words)
			words[0] = ^uint64(0) // SetPage must have copied
		case op < 17:
			c := memPair{m: p.m.Clone(), ref: p.ref.Clone(), depth: p.depth + 1}
			if afterClone != nil {
				afterClone(p.m)
			}
			if c.depth > maxDepth {
				maxDepth = c.depth
			}
			if len(pool) < 8 {
				pool = append(pool, c)
			} else {
				pool[1+r.Intn(len(pool)-1)] = c
			}
		case op < 18:
			if i > 0 && r.Intn(3) == 0 { // never the root: the pool must keep a writable chain
				p.m.Freeze()
				p.ref.frozen = true
			}
			if p.m.Frozen() != p.ref.frozen {
				return fail("Frozen = %v, oracle %v", p.m.Frozen(), p.ref.frozen)
			}
		default:
			if err := p.compare(); err != nil {
				return fail("%v", err)
			}
		}
	}
	for i, p := range pool {
		if err := p.compare(); err != nil {
			return maxDepth, fmt.Errorf("seed %d final mem %d: %v", seed, i, err)
		}
	}
	return maxDepth, nil
}

// TestMemoryDifferential holds the page table to the map-based memory it
// replaced, over every exported operation, at every table edge, across
// clone chains written on both sides.
func TestMemoryDifferential(t *testing.T) {
	deepest := 0
	for seed := int64(1); seed <= 25; seed++ {
		depth, err := diffMemory(seed, 3000, nil)
		if err != nil {
			t.Fatal(err)
		}
		if depth > deepest {
			deepest = depth
		}
	}
	if deepest < 3 {
		t.Errorf("deepest clone chain was %d; the test must reach 3", deepest)
	}
}

// TestMemoryDifferentialCatchesDroppedCOW is the test of the test: with
// the parent's shared marks cleared after every Clone (one dropped bit
// of book-keeping), parent writes land in pages its clones still read, and
// the differential run must say so.
func TestMemoryDifferentialCatchesDroppedCOW(t *testing.T) {
	dropCOW := func(m *Memory) {
		if m.frozen {
			return
		}
		for _, lf := range m.root {
			if lf != nil {
				lf.shared = [leafPages / 64]uint64{}
			}
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		if _, err := diffMemory(seed, 3000, dropCOW); err == nil {
			t.Errorf("seed %d: a memory that drops its COW marks passed the differential test", seed)
		}
	}
}

// TestMemoryHotPathAllocFree gates the three accesses the simulators
// issue per instruction: a load that hits, a store to a page the memory
// owns, and a wrong-path load of a wild address (which must not even
// allocate a page-table leaf).
func TestMemoryHotPathAllocFree(t *testing.T) {
	m := NewMemory()
	m.WriteWord(HeapBase, 1)
	m.WriteWord(uint64(1)<<33, 2)
	c := m.Clone()
	c.WriteWord(HeapBase+8, 3) // c now owns the page
	var sink uint64
	for name, f := range map[string]func(){
		"ReadWord hit":          func() { sink += c.ReadWord(HeapBase) },
		"ReadWord far hit":      func() { sink += c.ReadWord(uint64(1) << 33) },
		"WriteWord private":     func() { c.WriteWord(HeapBase+16, sink) },
		"ReadWord wild":         func() { sink += c.ReadWord(0xdead_beef_0000) + c.ReadWord(3<<30) },
		"ReadWord untouched":    func() { sink += c.ReadWord(HeapBase + 64*PageBytes) },
		"ReadWord frozen image": func() { sink += m.ReadWord(HeapBase) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %.0f allocs/op, want 0", name, n)
		}
	}
	if c.Pages() != 2 {
		t.Errorf("wild reads left pages behind: Pages = %d, want 2", c.Pages())
	}
}

// benchImage builds a frozen program image of n pages the way a kernel
// does: Alloc, then SetWord over the whole heap.
func benchImage(n int) *Program {
	b := NewBuilder("bench")
	base := b.Alloc(uint64(n) * PageBytes)
	for a := base; a < base+uint64(n)*PageBytes; a += 8 {
		b.SetWord(a, a|1)
	}
	b.Halt()
	return b.MustBuild()
}

var benchSink uint64

func BenchmarkMemoryRead(b *testing.B) {
	m := benchImage(512).NewMemoryImage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += m.ReadWord(HeapBase + uint64(i)*1032%(512*PageBytes))
	}
}

func BenchmarkMemoryWrite(b *testing.B) {
	m := benchImage(512).NewMemoryImage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteWord(HeapBase+uint64(i)*1032%(512*PageBytes), uint64(i))
	}
}

// BenchmarkMemoryClone is a checkpoint take or restore: one COW clone of
// an 8 MB memory.
func BenchmarkMemoryClone(b *testing.B) {
	m := benchImage(2048).NewMemoryImage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += uint64(m.Clone().Pages())
	}
}

// BenchmarkNewMemoryImage is what every core.New and emu.New pays, at the
// image sizes of a test-scale (3 pages) and a full-scale (8 MB) kernel.
func BenchmarkNewMemoryImage(b *testing.B) {
	for _, pages := range []int{3, 2048} {
		p := benchImage(pages)
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += uint64(p.NewMemoryImage().Pages())
			}
		})
	}
}

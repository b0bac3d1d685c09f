package isa

import (
	"fmt"
	"slices"
)

// Memory is the sparse architectural data memory: a 64-bit byte-addressed
// space accessed in aligned 8-byte words, backed by 4KB pages allocated on
// first touch. Unwritten locations read as zero. The same type backs a
// program's initial data image, the functional emulator's state and the
// timing core's committed state.
//
// Pages live in a two-level table sized for the builder's address space
// (heap up from HeapBase, stack down from StackBase): a root slice, grown
// on demand, of leaves holding leafPages page pointers each. The table
// covers 4 GB (tablePages); the few pages beyond it sit in a fallback map,
// which only a program computing wild addresses ever populates.
//
// Clone is copy-on-write: the child gets its own leaves but shares the
// parent's pages, and either side copies a page on its first write to it
// (the shared bit beside each page pointer says so). A Frozen memory is
// an immutable snapshot — writes panic, and Clones of it never touch the
// parent, so one frozen image (a program's data, a shared checkpoint) can
// be cloned from many goroutines concurrently.
type Memory struct {
	root   []*leaf
	far    map[uint64]farPage // pages at or above tablePages
	npages int
	// frozen forbids writes: the memory is an immutable snapshot whose
	// pages are permanently shared with its clones.
	frozen bool
}

// PageBytes is the memory page size in bytes (matches the 4KB TLB page of
// paper Table 1).
const PageBytes = 4096

const (
	wordsPerPage = PageBytes / 8
	leafPages    = 512  // one leaf maps 2 MB
	rootLeaves   = 2048 // the root maps 4 GB when fully grown
	tablePages   = leafPages * rootLeaves
)

type page [wordsPerPage]uint64

// leaf is one second-level table. Bit i of shared marks pages[i] as aliased
// with another Memory (a COW parent or child): a write copies it first.
type leaf struct {
	pages  [leafPages]*page
	shared [leafPages / 64]uint64
}

type farPage struct {
	pg     *page
	shared bool
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// lookup returns the page holding page index p, or nil if it was never
// touched. It allocates nothing, so wrong-path loads of wild addresses
// leave no trace.
func (m *Memory) lookup(p uint64) *page {
	if l := p / leafPages; l < uint64(len(m.root)) {
		if lf := m.root[l]; lf != nil {
			return lf.pages[p%leafPages]
		}
		return nil
	}
	return m.far[p].pg
}

// ReadWord returns the aligned 8-byte word containing addr.
func (m *Memory) ReadWord(addr uint64) uint64 {
	if pg := m.lookup(addr / PageBytes); pg != nil {
		return pg[addr%PageBytes/8]
	}
	return 0
}

// WriteWord stores an aligned 8-byte word at addr. Writing to a Frozen
// memory panics: frozen images are shared snapshots (program data,
// checkpoints) whose clones alias their pages.
func (m *Memory) WriteWord(addr, val uint64) {
	p := addr / PageBytes
	if l := p / leafPages; l < uint64(len(m.root)) {
		if lf := m.root[l]; lf != nil {
			i := p % leafPages
			if pg := lf.pages[i]; pg != nil && lf.shared[i/64]&(1<<(i%64)) == 0 {
				pg[addr%PageBytes/8] = val
				return
			}
		}
	}
	m.private(p)[addr%PageBytes/8] = val
}

// private returns page p ready for writing: allocated if untouched,
// copied first if it is shared. Every page of a frozen memory is marked
// shared, so every write to one arrives here.
func (m *Memory) private(p uint64) *page {
	if m.frozen {
		panic(fmt.Sprintf("isa: write to frozen memory (page %d)", p))
	}
	if p >= tablePages {
		if m.far == nil {
			m.far = make(map[uint64]farPage)
		}
		f := m.far[p]
		pg := m.fresh(f.pg, f.shared)
		m.far[p] = farPage{pg: pg}
		return pg
	}
	l, i := p/leafPages, p%leafPages
	if l >= uint64(len(m.root)) {
		m.root = append(m.root, make([]*leaf, l+1-uint64(len(m.root)))...)
	}
	lf := m.root[l]
	if lf == nil {
		lf = new(leaf)
		m.root[l] = lf
	}
	bit := uint64(1) << (i % 64)
	pg := m.fresh(lf.pages[i], lf.shared[i/64]&bit != 0)
	lf.pages[i] = pg
	lf.shared[i/64] &^= bit
	return pg
}

func (m *Memory) fresh(old *page, shared bool) *page {
	switch {
	case old == nil:
		m.npages++
		return new(page)
	case shared:
		pg := new(page)
		*pg = *old
		return pg
	}
	return old
}

// ReadF64 reads a float64 stored at addr.
func (m *Memory) ReadF64(addr uint64) float64 { return U2F(m.ReadWord(addr)) }

// WriteF64 stores a float64 at addr.
func (m *Memory) WriteF64(addr uint64, v float64) { m.WriteWord(addr, F2U(v)) }

// Clone returns an independent copy. The copy is lazy: parent and child
// share pages until one of them writes, when the writer copies just that
// page — so cloning costs one 4KB leaf copy per 2 MB of touched address
// space, not O(bytes). Cloning a Frozen memory does not mutate the parent
// at all (its pages are permanently shared), which makes concurrent
// Clones of one frozen image safe.
func (m *Memory) Clone() *Memory {
	c := &Memory{root: make([]*leaf, len(m.root)), npages: m.npages}
	for l, lf := range m.root {
		if lf == nil {
			continue
		}
		if !m.frozen {
			lf.shared = allShared
		}
		c.root[l] = &leaf{pages: lf.pages, shared: allShared}
	}
	if len(m.far) > 0 {
		c.far = make(map[uint64]farPage, len(m.far))
		for p, f := range m.far {
			f.shared = true
			c.far[p] = f
			if !m.frozen {
				m.far[p] = f
			}
		}
	}
	return c
}

// allShared marks every slot of a leaf; bits over nil slots are never read.
var allShared = func() (s [leafPages / 64]uint64) {
	for i := range s {
		s[i] = ^uint64(0)
	}
	return
}()

// image returns a frozen copy-on-write copy of m that holds exactly the
// pages with a non-zero word: the canonical page set of that content,
// whatever zeroes were written and overwritten on the way to it.
func (m *Memory) image() *Memory {
	c := m.Clone()
	for _, lf := range c.root {
		if lf == nil {
			continue
		}
		for i, pg := range lf.pages {
			if pg != nil && *pg == (page{}) {
				lf.pages[i] = nil
				c.npages--
			}
		}
	}
	for p, f := range c.far {
		if *f.pg == (page{}) {
			delete(c.far, p)
			c.npages--
		}
	}
	c.Freeze()
	return c
}

// Freeze turns the memory into an immutable snapshot: further writes
// panic, and Clone stops book-keeping on the parent (every page is
// permanently shared). Program images and checkpoint images are frozen
// before they are handed to concurrent users.
func (m *Memory) Freeze() {
	m.frozen = true
	for _, lf := range m.root {
		if lf != nil {
			lf.shared = allShared
		}
	}
}

// Frozen reports whether the memory is an immutable snapshot.
func (m *Memory) Frozen() bool { return m.frozen }

// eachPage calls fn for every touched page in ascending index order.
func (m *Memory) eachPage(fn func(p uint64, pg *page)) {
	for l, lf := range m.root {
		if lf == nil {
			continue
		}
		for i, pg := range lf.pages {
			if pg != nil {
				fn(uint64(l)*leafPages+uint64(i), pg)
			}
		}
	}
	if len(m.far) == 0 {
		return
	}
	idx := make([]uint64, 0, len(m.far))
	for p := range m.far {
		idx = append(idx, p)
	}
	slices.Sort(idx)
	for _, p := range idx {
		fn(p, m.far[p].pg)
	}
}

// EachWord calls fn for every non-zero word in ascending address order:
// the canonical form of a memory's contents, which serializers (the .wtr
// data section) encode.
func (m *Memory) EachWord(fn func(addr, val uint64)) {
	m.eachPage(func(p uint64, pg *page) {
		for i, w := range pg {
			if w != 0 {
				fn(p*PageBytes+uint64(i)*8, w)
			}
		}
	})
}

// NonZeroWords counts the words EachWord visits.
func (m *Memory) NonZeroWords() int {
	n := 0
	m.EachWord(func(uint64, uint64) { n++ })
	return n
}

// Checksum folds every non-zero word (with its address) into a 64-bit FNV
// style hash. Two memories with identical contents produce identical
// checksums regardless of page allocation order; all-zero pages do not
// affect the result.
func (m *Memory) Checksum() uint64 {
	var sum uint64
	m.EachWord(func(addr, w uint64) {
		h := addr*0x9e3779b97f4a7c15 ^ w
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 32
		sum += h
	})
	return sum
}

// PageList returns the indices of every touched page, sorted ascending,
// so serializers (emu checkpoints) emit a canonical page order.
func (m *Memory) PageList() []uint64 {
	out := make([]uint64, 0, m.npages)
	m.eachPage(func(p uint64, _ *page) { out = append(out, p) })
	return out
}

// PageWords returns a copy of one page's words (nil for an untouched
// page). The slice length is PageBytes/8.
func (m *Memory) PageWords(p uint64) []uint64 {
	pg := m.lookup(p)
	if pg == nil {
		return nil
	}
	return append([]uint64(nil), pg[:]...)
}

// SetPage installs a full page of words at the given page index. words
// must hold exactly PageBytes/8 entries; the page contents are copied.
func (m *Memory) SetPage(p uint64, words []uint64) {
	if len(words) != wordsPerPage {
		panic(fmt.Sprintf("isa: SetPage with %d words (want %d)", len(words), wordsPerPage))
	}
	copy(m.private(p)[:], words)
}

// Pages reports how many distinct pages have been touched.
func (m *Memory) Pages() int { return m.npages }

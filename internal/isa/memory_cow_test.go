package isa

import (
	"sync"
	"testing"
)

// TestMemoryCOWIsolation exercises both directions of the copy-on-write
// contract: a write on either side of a Clone must not be visible through
// the other, including writes to pages that were never copied.
func TestMemoryCOWIsolation(t *testing.T) {
	m := NewMemory()
	m.WriteWord(16, 5)
	m.WriteWord(PageBytes+8, 6)

	c := m.Clone()
	// Parent write after the clone: child must keep the old value.
	m.WriteWord(16, 50)
	if got := c.ReadWord(16); got != 5 {
		t.Errorf("parent write leaked into clone: read = %d, want 5", got)
	}
	// Child write: parent must keep its own value.
	c.WriteWord(PageBytes+8, 60)
	if got := m.ReadWord(PageBytes + 8); got != 6 {
		t.Errorf("clone write leaked into parent: read = %d, want 6", got)
	}
	// Untouched shared page reads identically through both.
	m.WriteWord(2*PageBytes, 7)
	if got := c.ReadWord(2 * PageBytes); got != 0 {
		t.Errorf("post-clone parent page visible in clone: read = %d", got)
	}
}

// TestMemoryCloneOfClone checks COW chains: grandchildren must be
// isolated from both ancestors.
func TestMemoryCloneOfClone(t *testing.T) {
	a := NewMemory()
	a.WriteWord(8, 1)
	b := a.Clone()
	c := b.Clone()
	c.WriteWord(8, 3)
	b.WriteWord(8, 2)
	if a.ReadWord(8) != 1 || b.ReadWord(8) != 2 || c.ReadWord(8) != 3 {
		t.Errorf("COW chain corrupt: a=%d b=%d c=%d, want 1 2 3",
			a.ReadWord(8), b.ReadWord(8), c.ReadWord(8))
	}
}

// TestMemoryFrozenWritePanics pins the immutability contract of frozen
// snapshots.
func TestMemoryFrozenWritePanics(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0, 1)
	m.Freeze()
	if !m.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}
	defer func() {
		if recover() == nil {
			t.Error("WriteWord on frozen memory did not panic")
		}
	}()
	m.WriteWord(0, 2)
}

// TestMemoryFrozenConcurrentClones is the checkpoint-sharing scenario: one
// frozen image cloned and written from many goroutines at once (run under
// -race). Clones of a frozen parent must not mutate it.
func TestMemoryFrozenConcurrentClones(t *testing.T) {
	// 64 pages spread over a leaf boundary, the stack's leaf, and the
	// fallback map beyond the table.
	addr := func(i uint64) uint64 {
		switch i % 4 {
		case 0:
			return leafPages*PageBytes - 32*PageBytes + i*PageBytes
		case 1:
			return StackBase - (i+1)*PageBytes
		case 2:
			return 1<<33 + i*PageBytes
		}
		return i * PageBytes
	}
	m := NewMemory()
	for i := uint64(0); i < 64; i++ {
		m.WriteWord(addr(i), i+1)
	}
	m.Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := m.Clone()
			for i := uint64(0); i < 64; i++ {
				c.WriteWord(addr(i), uint64(g)*1000+i)
			}
			for i := uint64(0); i < 64; i++ {
				if got := c.ReadWord(addr(i)); got != uint64(g)*1000+i {
					t.Errorf("goroutine %d: read = %d", g, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := uint64(0); i < 64; i++ {
		if got := m.ReadWord(addr(i)); got != i+1 {
			t.Fatalf("frozen parent mutated: page %d = %d, want %d", i, got, i+1)
		}
	}
}

// TestMemoryCloneChecksumEqual: a clone's contents (and checksum) equal
// the parent's at clone time.
func TestMemoryCloneChecksumEqual(t *testing.T) {
	m := NewMemory()
	for i := uint64(0); i < 200; i++ {
		m.WriteWord(i*64, i*i+1)
	}
	c := m.Clone()
	if m.Checksum() != c.Checksum() {
		t.Error("clone checksum differs from parent")
	}
	c.WriteWord(0, 999)
	if m.Checksum() == c.Checksum() {
		t.Error("checksums still equal after divergent write")
	}
}

package heap

import (
	stdheap "container/heap"
	"math/rand"
	"sort"
	"testing"
)

func intLess(a, b int) bool { return a < b }

func TestPushPopSorted(t *testing.T) {
	h := New(intLess)
	rng := rand.New(rand.NewSource(1))
	const n = 1000
	for i := 0; i < n; i++ {
		h.Push(rng.Intn(100)) // plenty of duplicates
	}
	if h.Len() != n {
		t.Fatalf("Len = %d, want %d", h.Len(), n)
	}
	var out []int
	for h.Len() > 0 {
		if got, want := h.Peek(), h.Slice()[0]; got != want {
			t.Fatalf("Peek %d != root %d", got, want)
		}
		out = append(out, h.Pop())
	}
	if !sort.IntsAreSorted(out) {
		t.Fatalf("pop order not sorted: %v", out)
	}
}

// stdInts adapts []int to container/heap for the equivalence check.
type stdInts []int

func (s stdInts) Len() int            { return len(s) }
func (s stdInts) Less(i, j int) bool  { return s[i] < s[j] }
func (s stdInts) Swap(i, j int)       { s[i], s[j] = s[j], s[i] }
func (s *stdInts) Push(x interface{}) { *s = append(*s, x.(int)) }
func (s *stdInts) Pop() interface{} {
	old := *s
	n := len(old)
	x := old[n-1]
	*s = old[:n-1]
	return x
}

// TestLayoutMatchesContainerHeap drives this heap and container/heap with
// an identical random operation sequence and asserts the backing arrays
// stay element-for-element identical. This is the property the core's
// golden stats rely on: equal-keyed elements must pop in the same order
// the container/heap-based code produced.
func TestLayoutMatchesContainerHeap(t *testing.T) {
	h := New(intLess)
	var s stdInts
	rng := rand.New(rand.NewSource(42))
	check := func(step int) {
		t.Helper()
		if len(s) != h.Len() {
			t.Fatalf("step %d: len %d vs %d", step, h.Len(), len(s))
		}
		for i, v := range h.Slice() {
			if s[i] != v {
				t.Fatalf("step %d: layout diverged at %d: %d vs %d\n%v\n%v",
					step, i, v, s[i], h.Slice(), []int(s))
			}
		}
	}
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || h.Len() == 0:
			v := rng.Intn(50)
			h.Push(v)
			stdheap.Push(&s, v)
		case op < 8:
			a := h.Pop()
			b := stdheap.Pop(&s).(int)
			if a != b {
				t.Fatalf("step %d: Pop %d vs %d", step, a, b)
			}
		case op < 9:
			i := rng.Intn(h.Len())
			a := h.Remove(i)
			b := stdheap.Remove(&s, i).(int)
			if a != b {
				t.Fatalf("step %d: Remove(%d) %d vs %d", step, i, a, b)
			}
		default:
			// Bulk append + Init vs the same on container/heap.
			for k := 0; k < 3; k++ {
				v := rng.Intn(50)
				h.Append(v)
				s = append(s, v)
			}
			h.Init()
			stdheap.Init(&s)
		}
		check(step)
	}
}

// TestSteadyStateAllocFree asserts the hot-path contract: once the
// backing array has grown, Push/Pop/Peek/Append/Init allocate nothing.
func TestSteadyStateAllocFree(t *testing.T) {
	type ev struct {
		cycle int64
		seq   uint64
	}
	h := NewWithCapacity(func(a, b ev) bool { return a.cycle < b.cycle }, 64)
	var n int64
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 32; i++ {
			n++
			h.Push(ev{cycle: n % 17, seq: uint64(n)})
		}
		for i := 0; i < 8; i++ {
			h.Append(ev{cycle: n % 5})
		}
		h.Init()
		for h.Len() > 0 {
			h.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", allocs)
	}
}

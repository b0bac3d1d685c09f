// Package heap provides a generic, non-boxing binary min-heap for the
// simulator's hot scheduling paths: the program-order WIB's eligible
// pool and the MLP fill tracker. The tracker holds one entry per
// outstanding L2 miss ordered by fill time — up to 142 at once on mst, 88
// on art (WIB/2048, DESIGN.md §5.2) — which is why it is a heap and not a
// scanned slice. (The cache fill tables in internal/mem sift the same way
// over a field compare, so a Hierarchy holds no func value.)
// internal/core's event-queue tests keep it as their oracle, and
// benchmark/ times it as heap.pushpop_ns.
//
// It exists to replace container/heap, whose interface{}-typed Push/Pop
// box one value per operation — several heap operations run per simulated
// instruction, so the boxing dominated the simulator's allocation profile.
//
// The sift-up/sift-down algorithms are copied operation-for-operation from
// container/heap (same comparison directions, same tie-breaks, same
// Remove fallback order), so a Heap produces the exact same element layout
// — and therefore the exact same pop order among equal keys — as the
// container/heap code it replaces. That property was load-bearing while
// the core's event queue was a Heap keyed by cycle alone — same-cycle
// events fired in layout order, and the golden statistics recorded it —
// until that order was specified (DESIGN.md §8.3). It is kept, and
// TestLayoutMatchesContainerHeap pins it.
package heap

// Heap is a binary min-heap ordered by the less function. The zero value
// is not usable; construct with New. Push and Pop never allocate except
// when the backing array must grow.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// New returns an empty heap ordered by less (strict "a sorts before b").
func New[T any](less func(a, b T) bool) Heap[T] {
	return Heap[T]{less: less}
}

// NewWithCapacity returns an empty heap with pre-grown backing storage.
func NewWithCapacity[T any](less func(a, b T) bool, capacity int) Heap[T] {
	return Heap[T]{items: make([]T, 0, capacity), less: less}
}

// Len reports the number of elements.
func (h *Heap[T]) Len() int { return len(h.items) }

// Peek returns the minimum element without removing it. It must not be
// called on an empty heap.
func (h *Heap[T]) Peek() T { return h.items[0] }

// Push adds x, maintaining heap order.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum element. It must not be called on
// an empty heap.
func (h *Heap[T]) Pop() T {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.down(0, n)
	x := h.items[n]
	var zero T
	h.items[n] = zero // release references held by pointer-bearing types
	h.items = h.items[:n]
	return x
}

// Remove removes and returns the element at index i (container/heap
// Remove semantics).
func (h *Heap[T]) Remove(i int) T {
	n := len(h.items) - 1
	if n != i {
		h.items[i], h.items[n] = h.items[n], h.items[i]
		if !h.down(i, n) {
			h.up(i)
		}
	}
	x := h.items[n]
	var zero T
	h.items[n] = zero
	h.items = h.items[:n]
	return x
}

// Append adds x WITHOUT restoring heap order. Call Init afterwards. It
// exists for bulk re-insertion (issue set-aside lists), which is cheaper
// as append-all + one Init than as repeated Push.
func (h *Heap[T]) Append(x T) { h.items = append(h.items, x) }

// Init establishes heap order over the whole backing slice, exactly as
// container/heap.Init does.
func (h *Heap[T]) Init() {
	n := len(h.items)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// Slice exposes the raw backing array in heap order. Callers must not
// reorder it; it exists for read-only diagnostic scans (the deadlock
// watchdog, fault injection victim selection).
func (h *Heap[T]) Slice() []T { return h.items }

// up and down mirror container/heap's unexported helpers exactly.
func (h *Heap[T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(h.items[j], h.items[i]) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

func (h *Heap[T]) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(h.items[j2], h.items[j1]) {
			j = j2 // = 2*i + 2  // right child
		}
		if !h.less(h.items[j], h.items[i]) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
	return i > i0
}

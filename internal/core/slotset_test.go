package core

import (
	"math/rand"
	"testing"
)

// naiveSet is slotSet's oracle: one bool per position, every query a
// linear scan.
type naiveSet []bool

func (s naiveSet) count() int {
	n := 0
	for _, in := range s {
		if in {
			n++
		}
	}
	return n
}

// firstFrom scans pos, pos+1, … round the ring; pos may be len(s).
func (s naiveSet) firstFrom(pos int32) int32 {
	for i := range s {
		if k := (int(pos) + i) % len(s); s[k] {
			return int32(k)
		}
	}
	return -1
}

// slotSetSizes straddle the word boundary: one position, a word less one,
// exactly one, one more, two words, and the deepest active list.
var slotSetSizes = []int{1, 63, 64, 65, 128, 2048}

// runSlotScript replays a byte script on a slotSet of the given size and
// on the oracle: three bytes an operation — add, remove, or first-from
// (whose start may be one past the last position) — at a position drawn
// from the other two. Every answer is compared as it is given, and the
// script's final set is searched from every start position.
func runSlotScript(t *testing.T, size int, script []byte) {
	t.Helper()
	s, ref := newSlotSet(size), make(naiveSet, size)
	for ; len(script) >= 3; script = script[3:] {
		at := int(script[1])<<8 | int(script[2])
		switch pos := int32(at % size); script[0] % 3 {
		case 0:
			if changed := s.add(pos); changed == ref[pos] {
				t.Fatalf("size %d: add(%d) reported changed=%v on a set that had it=%v", size, pos, changed, ref[pos])
			}
			ref[pos] = true
		case 1:
			if changed := s.remove(pos); changed != ref[pos] {
				t.Fatalf("size %d: remove(%d) reported changed=%v on a set that had it=%v", size, pos, changed, ref[pos])
			}
			ref[pos] = false
		case 2:
			pos = int32(at % (size + 1))
			if got, want := s.firstFrom(pos), ref.firstFrom(pos); got != want {
				t.Fatalf("size %d: firstFrom(%d) = %d, linear scan finds %d", size, pos, got, want)
			}
		}
		if s.n != ref.count() {
			t.Fatalf("size %d: count %d, oracle holds %d", size, s.n, ref.count())
		}
	}
	for pos := int32(0); pos <= int32(size); pos++ {
		if got, want := s.firstFrom(pos), ref.firstFrom(pos); got != want {
			t.Fatalf("size %d: firstFrom(%d) = %d, linear scan finds %d", size, pos, got, want)
		}
		if pos < int32(size) && s.has(pos) != ref[pos] {
			t.Fatalf("size %d: has(%d) = %v, oracle %v", size, pos, s.has(pos), ref[pos])
		}
	}
	checkSlotSets(KindIQRequestMap, "script sets", ref.count(), s)
}

// TestSlotSetMatchesNaive holds the bitmap to the linear scan: every
// single-member and two-member set searched from every start position
// (the searches whose answer lies behind the start are the wrap), then
// seeded random scripts that fill and drain each size.
func TestSlotSetMatchesNaive(t *testing.T) {
	for _, size := range slotSetSizes {
		members := [][]int{}
		for i := 0; i < size; i += max(1, size/97) {
			members = append(members, []int{i}, []int{i, (i + size/2 + 1) % size}, []int{i, (i + 1) % size})
		}
		for _, ms := range members {
			var script []byte
			for _, m := range ms {
				script = append(script, 0, byte(m>>8), byte(m))
			}
			runSlotScript(t, size, script)
		}
		rng := rand.New(rand.NewSource(int64(size)))
		for round := 0; round < 40; round++ {
			script := make([]byte, 3*(50+rng.Intn(4*size)))
			rng.Read(script)
			if round%2 == 0 {
				// Mostly adds, so the set fills and searches cross full words.
				for i := 0; i < len(script); i += 3 {
					if script[i]%3 == 1 && rng.Intn(4) > 0 {
						script[i] = 0
					}
				}
			}
			runSlotScript(t, size, script)
		}
	}
}

// FuzzSlotSetMatchesNaive: the first byte picks the size, the rest is the
// operation script.
func FuzzSlotSetMatchesNaive(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 0, 1})
	f.Add([]byte{3, 0, 0, 64, 2, 0, 65, 0, 0, 0, 2, 0, 1})           // 65: a member in the last word, a search from one past it
	f.Add([]byte{4, 0, 0, 5, 2, 0, 70, 1, 0, 5, 2, 0, 70})           // 128: the answer lies a word behind the start
	f.Add([]byte{5, 0, 7, 255, 0, 0, 0, 2, 7, 255, 1, 7, 255, 2, 4}) // 2048: last position, then the wrap to the first
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runSlotScript(t, slotSetSizes[int(data[0])%len(slotSetSizes)], data[1:])
	})
}

// TestSlotSetRecountThrows: a count that drifts from the bitmap, and a
// member no entry accounts for, are both named by the per-cycle check.
func TestSlotSetRecountThrows(t *testing.T) {
	kindOf := func(f func()) (kind ErrKind) {
		defer func() {
			if sp, ok := recover().(*SimPanic); ok {
				kind = sp.Kind
			}
		}()
		f()
		return ""
	}
	s := newSlotSet(100)
	s.add(70)
	if k := kindOf(func() { checkSlotSets(KindIQRequestMap, "test sets", 1, s) }); k != "" {
		t.Errorf("a consistent set threw %q", k)
	}
	if k := kindOf(func() { checkSlotSets(KindIQRequestMap, "test sets", 0, s) }); k != KindIQRequestMap {
		t.Errorf("a member no entry accounts for: kind %q, want %q", k, KindIQRequestMap)
	}
	s.n++
	if k := kindOf(func() { checkSlotSets(KindWIBEligibleMap, "test sets", 2, s) }); k != KindWIBEligibleMap {
		t.Errorf("a drifted count: kind %q, want %q", k, KindWIBEligibleMap)
	}
}

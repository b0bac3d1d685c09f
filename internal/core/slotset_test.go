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

// countRange counts the members in [from, to), or in [from, len) and
// [0, to) when from > to; either bound may be len(s).
func (s naiveSet) countRange(from, to int32) int {
	n := 0
	for k, member := range s {
		i := int32(k)
		inside := i >= from && i < to
		if from > to {
			inside = i >= from || i < to
		}
		if member && inside {
			n++
		}
	}
	return n
}

// rangeEnd draws a stretch's second bound from the one the script gives:
// a multiplicative hash, so both bounds cover every position.
func rangeEnd(at, size int) int32 { return int32(at * 40503 % (size + 1)) }

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
// on the oracle: three bytes an operation — add, remove, first-from (whose
// start may be one past the last position) or count-range (a ring stretch
// that may wrap, either bound one past the last position) — at a position
// drawn from the other two. Every answer is compared as it is given, and
// the script's final set is searched from every start position and
// counted over a stretch from each and over [0, pos) up to the whole set.
func runSlotScript(t *testing.T, size int, script []byte) {
	t.Helper()
	s, ref := newSlotSet(size), make(naiveSet, size)
	for ; len(script) >= 3; script = script[3:] {
		at := int(script[1])<<8 | int(script[2])
		switch pos := int32(at % size); script[0] % 4 {
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
		case 3:
			from, to := int32(at%(size+1)), rangeEnd(at, size)
			if got, want := s.countRange(from, to), ref.countRange(from, to); got != want {
				t.Fatalf("size %d: countRange(%d, %d) = %d, linear scan counts %d", size, from, to, got, want)
			}
		}
		if s.n != ref.count() {
			t.Fatalf("size %d: count %d, oracle holds %d", size, s.n, ref.count())
		}
	}
	// below[i] counts the members below i, for the sweep's stretches.
	below := make([]int, size+1)
	for i, in := range ref {
		below[i+1] = below[i]
		if in {
			below[i+1]++
		}
	}
	for pos := int32(0); pos <= int32(size); pos++ {
		if got, want := s.firstFrom(pos), ref.firstFrom(pos); got != want {
			t.Fatalf("size %d: firstFrom(%d) = %d, linear scan finds %d", size, pos, got, want)
		}
		if pos < int32(size) && s.has(pos) != ref[pos] {
			t.Fatalf("size %d: has(%d) = %v, oracle %v", size, pos, s.has(pos), ref[pos])
		}
		to := rangeEnd(int(pos), size)
		want := below[to] - below[pos]
		if pos > to {
			want += below[size]
		}
		if got := s.countRange(pos, to); got != want {
			t.Fatalf("size %d: countRange(%d, %d) = %d, linear scan counts %d", size, pos, to, got, want)
		}
		if got := s.countRange(0, pos); got != below[pos] {
			t.Fatalf("size %d: countRange(0, %d) = %d, linear scan counts %d", size, pos, got, below[pos])
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
					if script[i]%4 == 1 && rng.Intn(4) > 0 {
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
	f.Add([]byte{4, 0, 0, 3, 0, 0, 100, 3, 0, 33, 3, 0, 128})        // 128: a stretch round the ring past both members, one from the top
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

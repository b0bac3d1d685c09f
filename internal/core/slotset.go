package core

import "math/bits"

// slotSet is a set of ring positions — active-list slots, or one WIB
// bank's share of them — kept as a bitmap with its population count. The
// active list allocates in program order, so the first member in ring
// order from the head's position is the oldest: both indexed searches of
// the core (the issue queues' oldest-first select over their request
// lines, each WIB bank's priority encoder over its eligible bits) are
// firstFrom on one of these.
type slotSet struct {
	words []uint64
	n     int // members: the popcount of words
}

func newSlotSet(positions int) slotSet {
	return slotSet{words: make([]uint64, (positions+63)/64)}
}

// newSlotSets points each of sets at its own share of one new array, set
// after set, every share sized for positions.
func newSlotSets(sets []slotSet, positions int) {
	words := (positions + 63) / 64
	all := make([]uint64, len(sets)*words)
	for i := range sets {
		sets[i] = slotSet{words: all[i*words : (i+1)*words : (i+1)*words]}
	}
}

func (s *slotSet) has(i int32) bool { return s.words[i>>6]&(1<<(i&63)) != 0 }

// add and remove report whether the set changed, so a caller for which a
// repeated add or a remove of a non-member means corrupt bookkeeping can
// say so.
func (s *slotSet) add(i int32) bool {
	if s.has(i) {
		return false
	}
	s.words[i>>6] |= 1 << (i & 63)
	s.n++
	return true
}

func (s *slotSet) remove(i int32) bool {
	if !s.has(i) {
		return false
	}
	s.words[i>>6] &^= 1 << (i & 63)
	s.n--
	return true
}

// firstFrom returns the first member in ring order from pos: the least
// member at or above pos, failing that the least member, or -1 when the
// bitmap is empty. pos may be one past the last position.
func (s *slotSet) firstFrom(pos int32) int32 {
	if w0 := int(pos >> 6); w0 < len(s.words) {
		if m := s.words[w0] &^ lowBits(pos); m != 0 {
			return int32(w0<<6 + bits.TrailingZeros64(m))
		}
		for i := w0 + 1; i < len(s.words); i++ {
			if m := s.words[i]; m != 0 {
				return int32(i<<6 + bits.TrailingZeros64(m))
			}
		}
	}
	// At and above pos everything was clear, so the first set bit from the
	// bottom lies below it.
	for i, m := range s.words {
		if m != 0 {
			return int32(i<<6 + bits.TrailingZeros64(m))
		}
	}
	return -1
}

// countRange returns how many members lie in the ring stretch [from, to):
// from up to the top and round from the bottom when from > to, nothing
// when from == to. Either bound may be one past the last position. It
// counts a word at a time.
func (s *slotSet) countRange(from, to int32) int {
	if from > to {
		return s.n - s.countRange(to, from)
	}
	lo, hi := int(from>>6), int(to>>6)
	if lo == hi {
		if lo == len(s.words) {
			return 0
		}
		return bits.OnesCount64(s.words[lo] & lowBits(to) &^ lowBits(from))
	}
	n := bits.OnesCount64(s.words[lo] &^ lowBits(from))
	for _, m := range s.words[lo+1 : hi] {
		n += bits.OnesCount64(m)
	}
	if hi < len(s.words) {
		n += bits.OnesCount64(s.words[hi] & lowBits(to))
	}
	return n
}

// moveAll moves every member of s into dst, which holds none of them, a
// word at a time.
func (s *slotSet) moveAll(dst *slotSet) {
	if s.n == 0 {
		return
	}
	for i, m := range s.words {
		dst.words[i] |= m
		s.words[i] = 0
	}
	dst.n += s.n
	s.n = 0
}

// lowBits is the mask of a word's positions below pos's.
func lowBits(pos int32) uint64 { return 1<<(pos&63) - 1 }

// recount returns the bitmap's popcount (Debug runs), after checking the
// maintained count against it.
func (s *slotSet) recount(kind ErrKind, what string) int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	if n != s.n {
		throw(kind, 0, "%s count %d members, the bitmap holds %d", what, s.n, n)
	}
	return n
}

// checkSlotSets is the per-cycle invariant of every slot set, stated once:
// each set's count is its popcount, and its members are exactly the
// entries in the stage it indexes. The caller has found every one of the
// inStage entries in its set, so equal totals mean the sets hold nothing
// else.
func checkSlotSets(kind ErrKind, what string, inStage int, sets ...slotSet) {
	total := 0
	for i := range sets {
		total += sets[i].recount(kind, what)
	}
	if total != inStage {
		throw(kind, 0, "%s hold %d bits, the active list has %d entries in that stage", what, total, inStage)
	}
}

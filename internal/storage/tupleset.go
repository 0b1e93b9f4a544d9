package storage

import (
	"hash/maphash"
	"slices"
)

// TupleSet is a set of tuples that keeps insertion order. It is the one
// membership structure of the engine: a Relation's dedup, the chase's
// trigger dedup and the evaluator's answer sets are all TupleSets.
//
// Membership is hash-keyed, with no key string per tuple: a tuple is hashed
// once (hashTuple), an open-addressing table of (32-bit hash, row) slots maps
// the hash to rows, and a probe compares terms only when the hashes match,
// so tuples whose hashes collide but which differ are all kept. The table
// has a power-of-two length, is at most half full, and holds no pointers:
// the garbage collector never scans it, and Clone copies it with one copy.
// The hash seed affects only where a tuple's slot lies, never the order of
// Tuples. Reads do not write, so a set no one changes may be read by any
// number of goroutines. The zero value is an empty set.
type TupleSet struct {
	tuples []Tuple
	slots  []tupleSlot
}

// tupleSlot is one entry of the membership table.
type tupleSlot struct {
	hash uint32 // the tuple's hash; its low bits are the slot's home
	row  int32  // index of the tuple in TupleSet.tuples, plus one; 0 is empty
}

// minSlots is the table length of a set's first tuple.
const minSlots = 8

// tupleSeed seeds every tuple hash of the process.
var tupleSeed = maphash.MakeSeed()

// tupleHash is the membership hash. It is a variable only so that tests can
// force collisions.
var tupleHash = hashTuple

// hashTuple hashes each term's Kind and Name, in order, folded to 32 bits.
func hashTuple(t Tuple) uint32 {
	h := uint64(len(t))
	for _, x := range t {
		h = (h + maphash.String(tupleSeed, x.Name) + uint64(x.Kind)) * 0x9e3779b97f4a7c15
	}
	return uint32(h ^ h>>32)
}

// Len returns the number of tuples.
func (s *TupleSet) Len() int { return len(s.tuples) }

// Tuples returns the tuples in insertion order; callers must not mutate it.
func (s *TupleSet) Tuples() []Tuple { return s.tuples }

// Contains reports membership.
func (s *TupleSet) Contains(t Tuple) bool {
	_, found := s.find(tupleHash(t), t)
	return found
}

// Add inserts t, reporting whether it was new. The set takes ownership of
// t when it is new: the caller must not mutate it afterwards.
//
//repro:hotpath
func (s *TupleSet) Add(t Tuple) bool {
	h := tupleHash(t)
	i, found := s.find(h, t)
	if found {
		return false
	}
	s.put(i, h, t)
	return true
}

// find probes the table for t, whose hash is h: the slot holding it, or
// the empty slot where it goes (-1 while the table is unallocated).
//
//repro:hotpath
func (s *TupleSet) find(h uint32, t Tuple) (int, bool) {
	if len(s.slots) == 0 {
		return -1, false
	}
	mask := len(s.slots) - 1
	//repro:allow ctxpoll a probe ends at an empty slot: the table is at most half full
	for i := int(h) & mask; ; i = (i + 1) & mask {
		sl := s.slots[i]
		if sl.row == 0 {
			return i, false
		}
		if sl.hash == h && slices.Equal(s.tuples[sl.row-1], t) {
			return i, true
		}
	}
}

// put appends t, a tuple not in the set whose hash is h, and records it in
// the empty slot i that find returned. The table doubles first when the
// tuple would make it more than half full, and the tuple list doubles its
// capacity when full: append alone grows a large slice by a quarter at a
// time, which allocates about five times the final list on the way up.
//
//repro:hotpath
func (s *TupleSet) put(i int, h uint32, t Tuple) {
	if 2*(len(s.tuples)+1) > len(s.slots) {
		s.resize(max(2*len(s.slots), minSlots))
		i = s.empty(h)
	}
	if len(s.tuples) == cap(s.tuples) {
		s.tuples = slices.Grow(s.tuples, max(len(s.tuples), 4))
	}
	//repro:allow hotalloc the capacity check above makes this append in place
	s.tuples = append(s.tuples, t)
	s.slots[i] = tupleSlot{hash: h, row: int32(len(s.tuples))}
}

// empty returns the first empty slot on h's probe chain.
func (s *TupleSet) empty(h uint32) int {
	mask := len(s.slots) - 1
	i := int(h) & mask
	//repro:allow ctxpoll a probe ends at an empty slot: the table is at most half full
	for s.slots[i].row != 0 {
		i = (i + 1) & mask
	}
	return i
}

// resize re-places every entry by its stored hash in a table of n slots.
func (s *TupleSet) resize(n int) {
	old := s.slots
	s.slots = make([]tupleSlot, n)
	for _, sl := range old {
		if sl.row != 0 {
			s.slots[s.empty(sl.hash)] = sl
		}
	}
}

// appendSet appends the tuples of src, none of which s holds, in src's
// order. Each goes in under the hash src's table records: no tuple is
// re-hashed, compared or copied. Both lists double as put's do.
func (s *TupleSet) appendSet(src *TupleSet) {
	base := int32(len(s.tuples))
	if n := len(s.tuples) + len(src.tuples); n > cap(s.tuples) {
		s.tuples = slices.Grow(s.tuples, max(len(src.tuples), len(s.tuples)))
	}
	s.tuples = append(s.tuples, src.tuples...)
	n := max(len(s.slots), minSlots)
	for 2*len(s.tuples) > n {
		n *= 2
	}
	if n > len(s.slots) {
		s.resize(n)
	}
	for _, sl := range src.slots {
		if sl.row != 0 {
			s.slots[s.empty(sl.hash)] = tupleSlot{hash: sl.hash, row: base + sl.row}
		}
	}
}

// removeAt deletes the tuple recorded in slot i. The last tuple moves into
// the vacated row, and its slot is rewritten to say so. The slot is freed by
// backward-shift deletion, so every probe chain stays unbroken without
// tombstones.
func (s *TupleSet) removeAt(i int) {
	row := int(s.slots[i].row) - 1
	last := len(s.tuples) - 1
	s.unslot(i)
	if row != last {
		moved := s.tuples[last]
		s.slots[s.slotOf(tupleHash(moved), last)].row = int32(row + 1)
		s.tuples[row] = moved
	}
	s.tuples[last] = nil
	s.tuples = s.tuples[:last]
}

// unslot empties slot i and shifts back each later entry of its probe run
// whose home does not lie cyclically in (i, j], so find still reaches it.
func (s *TupleSet) unslot(i int) {
	mask := len(s.slots) - 1
	//repro:allow ctxpoll a run ends at an empty slot: the table is at most half full
	for j := (i + 1) & mask; s.slots[j].row != 0; j = (j + 1) & mask {
		home := int(s.slots[j].hash) & mask
		if (j-home)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = tupleSlot{}
}

// slotOf returns the slot recording row, whose tuple hashes to h.
func (s *TupleSet) slotOf(h uint32, row int) int {
	mask := len(s.slots) - 1
	i := int(h) & mask
	//repro:allow ctxpoll the row is in the set, so its slot ends the probe
	for int(s.slots[i].row) != row+1 {
		i = (i + 1) & mask
	}
	return i
}

// clone copies the set: the tuple list and the slot table, each with one
// copy. Tuple values are shared; they are immutable by contract.
func (s *TupleSet) clone() TupleSet {
	return TupleSet{tuples: slices.Clone(s.tuples), slots: slices.Clone(s.slots)}
}

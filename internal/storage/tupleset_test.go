package storage

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/logic"
)

// collideHashes replaces the membership hash with h for the rest of the test.
func collideHashes(t *testing.T, h func(Tuple) uint32) {
	t.Helper()
	saved := tupleHash
	tupleHash = h
	t.Cleanup(func() { tupleHash = saved })
}

// TestTupleSetKeepsCollidingTuples: membership compares terms, so tuples
// whose hashes collide are all kept when they differ, and dropped when they
// are equal, whatever order they come in.
func TestTupleSetKeepsCollidingTuples(t *testing.T) {
	collideHashes(t, func(Tuple) uint32 { return 42 })
	n := logic.NewNull
	distinct := []Tuple{
		{c("a"), c("b")},
		{c("b"), c("a")},
		{c("a\x000b"), c("c")},
		{c("a"), c("b\x000c")},
		{n("a"), c("b")},
		{c("a"), n("b")},
		{c(""), c("ab")},
		{c("ab"), c("")},
	}
	for i := range 40 {
		distinct = append(distinct, Tuple{c(fmt.Sprintf("x%d", i)), c("y")})
	}

	probed := new(TupleSet)
	for i, tu := range distinct {
		if !probed.Add(tu) {
			t.Fatalf("Add(%v) = false: a colliding but different tuple was dropped", tu)
		}
		if probed.Add(slices.Clone(distinct[i/2])) {
			t.Fatalf("Add(%v) = true for a tuple already in the set", distinct[i/2])
		}
	}
	reversed := new(TupleSet)
	for _, tu := range slices.Backward(distinct) {
		if !reversed.Add(tu) {
			t.Fatalf("Add(%v) = false: a colliding but different tuple was dropped", tu)
		}
	}
	for _, set := range []*TupleSet{probed, reversed} {
		if set.Len() != len(distinct) {
			t.Fatalf("Len = %d, want %d", set.Len(), len(distinct))
		}
		for _, tu := range distinct {
			if !set.Contains(tu) {
				t.Errorf("Contains(%v) = false", tu)
			}
		}
		if set.Contains(Tuple{c("a"), c("a")}) {
			t.Error("Contains reports a tuple that was never added")
		}
	}
	if !slices.EqualFunc(probed.Tuples(), distinct, slices.Equal) {
		t.Error("Tuples is not in insertion order")
	}
	if reversed.Add(distinct[3]) || reversed.Len() != len(distinct) {
		t.Error("Add of a present tuple changed the set")
	}
}

// FuzzRelationSet checks a Relation's Insert, Remove, Contains and Clone
// against a model: a list in the order Remove's swap-with-last leaves, with
// membership by linear scan. The first byte picks the tuple width (its low
// two bits) and, with its high bit, a hash of three values whose low bits
// are all ones, so every tuple collides and every probe chain wraps. Then
// each operation is a byte (insert, remove, contains or clone) and a tuple
// over a three-letter alphabet that includes NUL, with constants and nulls
// of the same names. A clone becomes the relation written from then on;
// every earlier one must keep reading as it did when it was cloned. At the
// end every relation's per-column index must agree with its tuples.
func FuzzRelationSet(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 'a', 0, 1, 'b', 0, 1, 1, 'a', 0, 1, 'b', 1, 0, 1, 'a', 0, 1, 'b', 2, 0, 1, 'b', 0, 1, 'a'})
	f.Add([]byte{0x82, 0, 0, 2, 'a', 0, 1, 'b', 0, 0, 1, 'a', 0, 2, 0, 'b', 3, 0, 1, 'a', 1, 1, 'a', 1, 0, 2, 'a', 0, 1, 'b'})
	f.Add([]byte{0x81, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 2, 0, 3, 3, 1, 0, 1, 1, 0, 2, 0, 1, 0, 1, 0, 0})
	f.Add([]byte{0x83, 0, 0, 1, 'a', 0, 1, 'b', 0, 0, 0, 0, 0, 1, 0, 0, 1, 'b', 0, 0, 0, 0, 0, 0, 0, 3, 1, 0, 1, 'a', 0, 1, 'b', 0, 0})
	// Five colliding tuples, the first removed, then each survivor probed:
	// a removal that breaks a probe chain loses one of them.
	f.Add([]byte{0x81, 0, 0, 1, 'a', 0, 0, 1, 'b', 0, 0, 2, 'a', 'b', 0, 0, 2, 'b', 'a', 0, 0, 0,
		1, 0, 1, 'a', 2, 0, 1, 'b', 2, 0, 2, 'a', 'b', 2, 0, 2, 'b', 'a', 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if data[0]&0x80 != 0 {
			collideHashes(t, func(tu Tuple) uint32 { return ^uint32(0) - hashTuple(tu)%3 })
		}
		arity := int(data[0] & 3)
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		tuple := func() Tuple {
			tu := make(Tuple, arity)
			for i := range tu {
				kind := logic.Const
				if next()&1 == 1 {
					kind = logic.Null
				}
				name := make([]byte, next()%4)
				for j := range name {
					name[j] = "\x00ab"[next()%3]
				}
				tu[i] = logic.Term{Kind: kind, Name: string(name)}
			}
			return tu
		}

		type snapshot struct {
			rel  *Relation
			want []Tuple
		}
		var olds []snapshot
		rel := NewRelation("p", arity)
		var ref []Tuple
		index := func(tu Tuple) int {
			return slices.IndexFunc(ref, func(r Tuple) bool { return slices.Equal(r, tu) })
		}
		for len(data) > 0 {
			switch next() % 4 {
			case 0:
				tu := tuple()
				want := index(tu) < 0
				if got := rel.Insert(tu); got != want {
					t.Fatalf("Insert(%v) = %v, want %v", tu, got, want)
				}
				if want {
					ref = append(ref, slices.Clone(tu))
				}
			case 1:
				tu := tuple()
				i := index(tu)
				if got := rel.Remove(tu); got != (i >= 0) {
					t.Fatalf("Remove(%v) = %v, want %v", tu, got, i >= 0)
				}
				if i >= 0 {
					ref[i] = ref[len(ref)-1]
					ref = ref[:len(ref)-1]
				}
			case 2:
				tu := tuple()
				if got, want := rel.Contains(tu), index(tu) >= 0; got != want {
					t.Fatalf("Contains(%v) = %v, want %v", tu, got, want)
				}
			case 3:
				olds = append(olds, snapshot{rel, slices.Clone(ref)})
				rel = rel.Clone()
			}
			if !slices.EqualFunc(rel.Tuples(), ref, slices.Equal) {
				t.Fatalf("Tuples = %v, want %v", rel.Tuples(), ref)
			}
		}
		olds = append(olds, snapshot{rel, ref})
		for gen, g := range olds {
			if !slices.EqualFunc(g.rel.Tuples(), g.want, slices.Equal) {
				t.Fatalf("generation %d: Tuples = %v, want %v", gen, g.rel.Tuples(), g.want)
			}
			for _, tu := range g.want {
				if !g.rel.Contains(tu) {
					t.Fatalf("generation %d: Contains(%v) = false", gen, tu)
				}
			}
			for col := range arity {
				for row, tu := range g.want {
					offs := g.rel.Lookup(col, tu[col])
					n := 0
					for _, other := range g.want {
						if other[col] == tu[col] {
							n++
						}
					}
					if len(offs) != n || !slices.Contains(offs, row) {
						t.Fatalf("generation %d: Lookup(%d, %v) = %v, want %d rows with row %d", gen, col, tu[col], offs, n, row)
					}
				}
			}
		}
	})
}

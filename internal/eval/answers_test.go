package eval

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/storage"
)

// collideHashes replaces the membership hash with h for the rest of the test.
func collideHashes(t *testing.T, h func(storage.Tuple) uint64) {
	t.Helper()
	saved := tupleHash
	tupleHash = h
	t.Cleanup(func() { tupleHash = saved })
}

// TestAnswersKeepCollidingTuples: membership compares terms, so tuples whose
// hashes collide are all kept when they differ, and dropped when they are
// equal, whatever order they come in.
func TestAnswersKeepCollidingTuples(t *testing.T) {
	collideHashes(t, func(storage.Tuple) uint64 { return 42 })
	n := logic.NewNull
	distinct := []storage.Tuple{
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
		distinct = append(distinct, storage.Tuple{c(fmt.Sprintf("x%d", i)), c("y")})
	}

	probed := NewAnswers(2)
	for i, tu := range distinct {
		if !probed.Add(tu) {
			t.Fatalf("Add(%v) = false: a colliding but different tuple was dropped", tu)
		}
		if probed.AddOwned(slices.Clone(distinct[i/2])) {
			t.Fatalf("AddOwned(%v) = true for a tuple already in the set", distinct[i/2])
		}
	}
	reversed := NewAnswers(2)
	for _, tu := range slices.Backward(distinct) {
		if !reversed.AddOwned(tu) {
			t.Fatalf("AddOwned(%v) = false: a colliding but different tuple was dropped", tu)
		}
	}
	for _, set := range []*Answers{probed, reversed} {
		if set.Len() != len(distinct) {
			t.Fatalf("Len = %d, want %d", set.Len(), len(distinct))
		}
		for _, tu := range distinct {
			if !set.Contains(tu) {
				t.Errorf("Contains(%v) = false", tu)
			}
		}
		if set.Contains(storage.Tuple{c("a"), c("a")}) {
			t.Error("Contains reports a tuple that was never added")
		}
	}
	if !probed.Equal(reversed) || !reversed.Equal(probed) {
		t.Error("sets with the same tuples in different orders are not Equal")
	}
	if reversed.Add(distinct[3]) || reversed.Len() != len(distinct) {
		t.Error("Add of a present tuple changed the set")
	}
}

// FuzzAnswerSet checks Add, AddOwned, Contains, Len, Equal and insertion
// order against a linear scan. The input decodes into a tuple width of 0 to 3, then operations on
// tuples over a three-letter alphabet that includes NUL, with constants and
// nulls of the same names. A high bit in the first byte shrinks the hash to
// two bits, so most tuples collide.
func FuzzAnswerSet(f *testing.F) {
	f.Add([]byte{2, 0, 1, 'a', 0, 1, 'b', 1, 1, 'a', 0, 1, 'b', 2, 1, 'b', 0, 1, 'a'})
	f.Add([]byte{0x82, 0, 2, 'a', 0, 1, 'b', 0, 1, 'a', 0, 2, 0, 'b', 3, 1, 'a', 1, 1, 'a'})
	f.Add([]byte{0x80, 1, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 0})
	f.Add([]byte{3, 4, 0, 1, 'a', 0, 1, 'b', 0, 0, 3, 1, 'a', 0, 1, 'b', 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if data[0]&0x80 != 0 {
			collideHashes(t, func(tu storage.Tuple) uint64 { return hashTuple(tu) & 3 })
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
		tuple := func() storage.Tuple {
			tu := make(storage.Tuple, arity)
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

		set := NewAnswers(arity)
		var ref []storage.Tuple
		has := func(tu storage.Tuple) bool {
			return slices.ContainsFunc(ref, func(r storage.Tuple) bool { return slices.Equal(r, tu) })
		}
		for len(data) > 0 {
			op := next() % 3
			tu := tuple()
			want := !has(tu)
			switch op {
			case 0:
				if got := set.Add(tu); got != want {
					t.Fatalf("Add(%v) = %v, want %v", tu, got, want)
				}
			case 1:
				if got := set.AddOwned(tu); got != want {
					t.Fatalf("AddOwned(%v) = %v, want %v", tu, got, want)
				}
			case 2:
				if got := set.Contains(tu); got == want {
					t.Fatalf("Contains(%v) = %v, want %v", tu, got, !want)
				}
				want = false
			}
			if want {
				ref = append(ref, slices.Clone(tu))
			}
			if set.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", set.Len(), len(ref))
			}
		}

		for _, tu := range ref {
			if !set.Contains(tu) {
				t.Fatalf("Contains(%v) = false after it was added", tu)
			}
		}
		if !slices.EqualFunc(set.Tuples(), ref, slices.Equal) {
			t.Fatalf("Tuples = %v, want insertion order %v", set.Tuples(), ref)
		}
		reversed := NewAnswers(arity)
		for _, tu := range slices.Backward(ref) {
			reversed.Add(tu)
		}
		if !set.Equal(reversed) || !reversed.Equal(set) {
			t.Fatal("a set is not Equal to its own tuples added in reverse")
		}
		if len(ref) > 0 {
			short := NewAnswers(arity)
			for _, tu := range ref[1:] {
				short.Add(tu)
			}
			short.Add(make(storage.Tuple, arity+1))
			if set.Equal(short) || short.Equal(set) {
				t.Fatal("sets of equal size with different tuples are Equal")
			}
		}
	})
}

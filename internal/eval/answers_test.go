package eval

import (
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/storage"
)

// FuzzAnswerSet checks Add, AddOwned, Contains, Len, Equal and insertion
// order against a linear scan. The input decodes into a tuple width of 0 to 3, then operations on
// tuples over a three-letter alphabet that includes NUL, with constants and
// nulls of the same names; the high bits of the first byte are ignored.
// Hash collisions are forced where the set under the answers lives:
// storage's tuple-set tests and FuzzRelationSet.
func FuzzAnswerSet(f *testing.F) {
	f.Add([]byte{2, 0, 1, 'a', 0, 1, 'b', 1, 1, 'a', 0, 1, 'b', 2, 1, 'b', 0, 1, 'a'})
	f.Add([]byte{0x82, 0, 2, 'a', 0, 1, 'b', 0, 1, 'a', 0, 2, 0, 'b', 3, 1, 'a', 1, 1, 'a'})
	f.Add([]byte{0x80, 1, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 0})
	f.Add([]byte{3, 4, 0, 1, 'a', 0, 1, 'b', 0, 0, 3, 1, 'a', 0, 1, 'b', 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
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

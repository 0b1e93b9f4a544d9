package naive

import (
	"slices"
	"testing"

	"repro/internal/parser"
	"repro/internal/query"
)

// TestReferenceOnHandCheckedCases pins the oracle itself to results small
// enough to verify by hand: a recursive join, an existential rule whose head
// the restricted chase finds satisfied, and the semi-oblivious variant, which
// fires it anyway.
func TestReferenceOnHandCheckedCases(t *testing.T) {
	prog, err := parser.Parse(`
		e(X, Y) -> path(X, Y) .
		e(X, Y), path(Y, Z) -> path(X, Z) .
		node(X) -> e(X, Y) .
		e(a, b) . e(b, c) . node(a) . node(c) .
	`)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := prog.RuleSet()
	if err != nil {
		t.Fatal(err)
	}
	pq, err := parser.ParseQuery(`q(X, Y) :- path(X, Y) .`)
	if err != nil {
		t.Fatal(err)
	}
	u := query.MustNewUCQ(query.MustNew(pq.Head, pq.Body))
	want := []string{"[a b]", "[a c]", "[b c]"}
	for _, tc := range []struct {
		oblivious bool
		nulls     int // node(c) needs an e-successor; node(a) has one unless oblivious
	}{{false, 1}, {true, 2}} {
		chased, ok := Chase(rules, prog.Facts, tc.oblivious, 100)
		if !ok {
			t.Fatalf("oblivious=%v: chase over budget", tc.oblivious)
		}
		if got := Answers(u, chased); !slices.Equal(got, want) {
			t.Errorf("oblivious=%v: certain answers %v, want %v", tc.oblivious, got, want)
		}
		nulls := 0
		for _, f := range chased {
			if f.Pred == "e" && f.Args[1].IsNull() {
				nulls++
			}
		}
		if nulls != tc.nulls {
			t.Errorf("oblivious=%v: %d invented e-successors, want %d", tc.oblivious, nulls, tc.nulls)
		}
		if got := GroundFacts(chased); len(got) != 7 {
			t.Errorf("oblivious=%v: %d null-free facts %v, want 7 (4 base + 3 paths)", tc.oblivious, len(got), got)
		}
	}
	if _, ok := Chase(rules, prog.Facts, true, 1); ok {
		t.Error("a 1-step budget must report the chase as over budget")
	}
}

package parser

import (
	"testing"

	"repro/internal/query"
	"repro/internal/storage"
)

// FuzzParseQuery feeds arbitrary text to the query parser — the first thing
// every Answer* call and every POST .../query body reaches. It must never
// panic, and neither may validating, canonicalizing or printing a query it
// accepts (the answer and plan caches key on DedupKey). A query it accepts
// must print as text that parses back to the same query: same DedupKey.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		`q(X) :- person(X) .`,
		`q(X,Y) :- advisor(X,Y), professor(Y) .`,
		`q() :- r(a, "b c", _x) .`,
		`q(X) :- p(X), .`,
		`q(X) :- p(Y) .`,
		`p(a) .`,
		`q(X) :- p(X) . q(Y) :- r(Y) .`,
		"q(X) :- p(X) % comment\n .",
		`q(X) :- p("unterminated .`,
		`a():-a("0AAAAAA00").`,
		`q() :- a("0A") .`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		pq, err := ParseQuery(src)
		if err != nil {
			return
		}
		cq, err := query.New(pq.Head, pq.Body)
		if err != nil {
			return
		}
		printed, key := cq.String(), cq.DedupKey()
		if printed == "" || key == "" {
			t.Fatalf("accepted %q but printed it as %q with key %q", src, printed, key)
		}
		again, err := ParseQuery(printed)
		if err != nil {
			t.Fatalf("accepted %q but its printed form %q does not parse: %v", src, printed, err)
		}
		cq2, err := query.New(again.Head, again.Body)
		if err != nil {
			t.Fatalf("accepted %q but its printed form %q is not a valid query: %v", src, printed, err)
		}
		if k2 := cq2.DedupKey(); k2 != key {
			t.Fatalf("accepted %q, printed %q, re-parsed with key %q, want %q", src, printed, k2, key)
		}
	})
}

// FuzzParseProgram feeds arbitrary text to the program parser — what Parse,
// ParseFiles, AddRule and AddFact read their rules and facts with. It must
// never panic, and a program it accepts must hold only ground facts and must
// survive what every caller does next: building the rule set, printing it,
// collecting its signature and loading the facts into an instance (each of
// which may reject the program, none of which may panic).
func FuzzParseProgram(f *testing.F) {
	for _, seed := range []string{
		"student(X) -> person(X) .\nperson(X) -> hasParent(X, Y) .\nstudent(alice) .",
		`U22: takesCourse(X, C), teacherOf(Y, C) -> taughtBy(X, Y) .`,
		`department(X) -> subOrganizationOf(X, U), university(U) .`,
		`r(a, "b c", 7) . r(a, b) .`,
		`p(X) -> p(X) . p(X, Y) -> p(X) .`,
		`p(X) -> q(Y, Y), r(Y, X) . q(a, _n) .`,
		`p(X) .`,
		`-> p(a) .`,
		`p(a) -> .`,
		`L: L: p(X) -> q(X) .`,
		"p(a) . % comment\n q(X) :- p(X) .",
		`p("unterminated`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		for _, a := range prog.Facts {
			if !a.IsGround() {
				t.Fatalf("accepted %q with the non-ground fact %v", src, a)
			}
		}
		_, _ = storage.FromAtoms(prog.Facts)
		set, err := prog.RuleSet()
		if err != nil {
			return
		}
		if _, err := set.Predicates(); err == nil && set.Len() > 0 && set.String() == "" {
			t.Fatalf("accepted %q but printed its %d rules as nothing", src, set.Len())
		}
	})
}

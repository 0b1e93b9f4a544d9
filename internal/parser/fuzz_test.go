package parser

import (
	"testing"

	"repro/internal/query"
)

// FuzzParseQuery feeds arbitrary text to the query parser — the first thing
// every Answer* call and every POST .../query body reaches. It must never
// panic, and neither may validating, canonicalizing or printing a query it
// accepts (the answer and plan caches key on DedupKey).
//
// Printing is not checked to re-parse: Term.String does not re-quote
// constants that needed quotes (`a("0A")` prints as `a(0A)`), a known gap
// recorded in ROADMAP.md.
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
		if cq.String() == "" || cq.DedupKey() == "" {
			t.Fatalf("accepted %q but printed it as %q with key %q", src, cq.String(), cq.DedupKey())
		}
	})
}

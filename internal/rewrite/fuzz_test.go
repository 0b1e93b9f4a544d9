package rewrite

import (
	"context"
	"testing"
	"time"

	"repro/internal/parser"
	"repro/internal/query"
)

// FuzzRewrite feeds arbitrary program and query text through the parser into
// the rewriter under a 50-CQ budget. Rewriting must not panic, the result
// must agree with itself (Kept, the disjuncts and their paths line up, every
// disjunct is a safe CQ), and no kept disjunct may be contained in another:
// the pool invariant that offer's subsumption tests maintain, and that a
// predicate filter skipping a test it must run would break. Sets over six
// rules are skipped, and each run has a deadline.
func FuzzRewrite(f *testing.F) {
	for _, seed := range [][2]string{
		{example1, `ans(X) :- r(X,Y), v(Y,Z) .`},
		{example2, `q() :- r("a",X) .`},
		{example3, `ans() :- t(X,X,Y), u(X) .`},
		{"p(X) -> q(X,Y) .\nq(X,Y) -> p(Y) .\nq(X,Y), q(Y,Z) -> q(X,Z) .", `ans(X) :- q(X,Y), q(Y,Z) .`},
		{"person(W) -> hasChild(W,V) .", `q(X) :- hasChild(X,Y), hasChild(X,Z) .`},
		{"emp(X) -> worksFor(X,Y), dept(Y) .", `q(X) :- worksFor(X,Y), dept(Y) .`},
		{`p(X, "admin") -> q(X) . q(X) -> r(X, "admin") .`, `q(X) :- r(X, "admin") .`},
		{"a(X) -> b(X) . b(X) -> c(X) .", `q(X) :- c(X), b(X) .`},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, program, querySrc string) {
		prog, err := parser.Parse(program)
		if err != nil {
			return
		}
		rules, err := prog.RuleSet()
		if err != nil || rules.Len() > 6 {
			return
		}
		pq, err := parser.ParseQuery(querySrc)
		if err != nil {
			return
		}
		q, err := query.New(pq.Head, pq.Body)
		if err != nil {
			return
		}
		// A rewriting whose new disjuncts keep retiring old ones never
		// reaches the budget while each step grows dearer; the deadline
		// bounds it. The checks below hold wherever the run stops.
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		res := RewriteCtx(ctx, q, rules, Options{MaxCQs: 50})
		kept := res.UCQ.CQs
		if res.Kept != len(kept) || res.Kept != len(res.Paths) {
			t.Fatalf("Kept %d, %d disjuncts, %d paths", res.Kept, len(kept), len(res.Paths))
		}
		for i, p := range kept {
			if err := p.Validate(); err != nil {
				t.Fatalf("disjunct %v: %v", p, err)
			}
			for j, other := range kept {
				if i != j && p.ContainedIn(other) {
					t.Fatalf("disjunct %v is contained in disjunct %v\nrules:\n%s\nquery: %s", p, other, rules, q)
				}
			}
		}
	})
}

package rewrite

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/query"
)

// goldenCase is one rewriting of the golden table: a query over a rule set
// under a CQ budget.
type goldenCase struct {
	name   string
	rules  *dependency.Set
	q      *query.CQ
	maxCQs int
}

var (
	example1 = `
s(Y1,Y2,Y3), t(Y4) -> r(Y1,Y3) .
v(Y1,Y2), q(Y2) -> s(Y1,Y3,Y2) .
r(Y1,Y2) -> v(Y1,Y2) .
`
	example2 = `
t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .
s(Y1,Y1,Y2) -> r(Y2,Y3) .
`
	example3 = `
r(Y1,Y2) -> t(Y3,Y1,Y1) .
s(Y1,Y2,Y3) -> r(Y1,Y2) .
u(Y1), t(Y1,Y1,Y2) -> s(Y1,Y1,Y2) .
`
)

// joinQueries returns, for the sorted predicates of a set, queries in the
// shape the onboard_rewrite benchmark asks: for i < n, one single-atom query
// over predicate i and one two-atom join on the first argument over
// predicates n+2i and n+2i+1 (indexes wrap).
func joinQueries(set *dependency.Set, preds []string, n int) []*query.CQ {
	sig, err := set.Predicates()
	if err != nil {
		panic(err)
	}
	atom := func(i int, tag string) logic.Atom {
		p := preds[i%len(preds)]
		args := []logic.Term{logic.NewVar("X")}
		for k := 1; k < sig[p]; k++ {
			args = append(args, logic.NewVar(fmt.Sprintf("%s%d", tag, k)))
		}
		return logic.NewAtom(p, args...)
	}
	head := logic.NewAtom("q", logic.NewVar("X"))
	var out []*query.CQ
	for i := 0; i < n; i++ {
		out = append(out,
			query.MustNew(head, []logic.Atom{atom(i, "A")}),
			query.MustNew(head, []logic.Atom{atom(n+2*i, "A"), atom(n+2*i+1, "B")}))
	}
	return out
}

// sortedPreds returns every predicate of the set, sorted.
func sortedPreds(set *dependency.Set) []string {
	sig, err := set.Predicates()
	if err != nil {
		panic(err)
	}
	out := make([]string, 0, len(sig))
	for p := range sig {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// goldenCases are the paper's Examples 1–3 with the queries of their unit
// tests; University with the answer_scan queries; the four generated sets of
// the onboard_rewrite benchmark at 40 rules with its eight queries;
// ChainOntology(32) with its deepest class; and every datagen family at 8
// rules for seeds 0–9 with one atomic and one join query over its head
// predicates.
func goldenCases() []goldenCase {
	var cs []goldenCase
	add := func(name string, set *dependency.Set, src string, maxCQs int) {
		cs = append(cs, goldenCase{name, set, mustQ(src), maxCQs})
	}
	ex1 := parser.MustParseRules(example1)
	for i, src := range []string{`ans(X,Y) :- r(X,Y) .`, `ans(X) :- s(X,Y,Z) .`,
		`ans(X,Y) :- v(X,Y) .`, `ans(X) :- r(X,Y), v(Y,Z) .`} {
		add(fmt.Sprintf("example1/%d", i), ex1, src, 0)
	}
	add("example2/0", parser.MustParseRules(example2), `q() :- r("a",X) .`, 60)
	ex3 := parser.MustParseRules(example3)
	for i, src := range []string{`ans(X,Y) :- r(X,Y) .`, `ans(X,Y,Z) :- t(X,Y,Z) .`,
		`ans(X,Y,Z) :- s(X,Y,Z) .`, `ans(X) :- s(X,X,Y) .`, `ans() :- t(X,X,Y), u(X) .`} {
		add(fmt.Sprintf("example3/%d", i), ex3, src, 0)
	}
	uni := datagen.University()
	for i, src := range []string{`q(X) :- person(X) .`, `q(S, P) :- taughtBy(S, P) .`,
		`q(S, P, D) :- advisor(S, P), worksFor(P, D) .`, `q(X, C) :- faculty(X), teacherOf(X, C) .`,
		`q(C, D) :- teacherOf(P, C), worksFor(P, D) .`, `q(X) :- employee(X) .`} {
		add(fmt.Sprintf("university/%d", i), uni, src, 0)
	}
	for _, c := range []datagen.Config{
		{Family: datagen.FamilyLinear, Seed: 2},
		{Family: datagen.FamilyMultilinear, Seed: 13},
		{Family: datagen.FamilySticky, Seed: 12},
		{Family: datagen.FamilyChain, Seed: 7},
	} {
		c.Rules = 40
		set := datagen.Rules(c)
		for i, q := range joinQueries(set, sortedPreds(set), 4) {
			cs = append(cs, goldenCase{fmt.Sprintf("onboard-%s/%d/%d", c.Family, c.Seed, i), set, q, 0})
		}
	}
	add("chain32", datagen.ChainOntology(32), `q(X) :- c32(X) .`, 0)
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyMultilinear, datagen.FamilySticky, datagen.FamilyChain}
	for _, fam := range families {
		for seed := int64(0); seed < 10; seed++ {
			set := datagen.Rules(datagen.Config{Family: fam, Rules: 8, Seed: seed})
			for i, q := range joinQueries(set, set.HeadPredicates(), 1) {
				cs = append(cs, goldenCase{fmt.Sprintf("%s/%d/%d", fam, seed, i), set, q, 500})
			}
		}
	}
	return cs
}

// goldenSummary renders the counters of a rewriting as the first line of its
// golden section.
func goldenSummary(res *Result) string {
	return fmt.Sprintf("complete=%v generated=%d kept=%d largest=%d depth=%d",
		res.Complete, res.Generated, res.Kept, res.LargestCQ, res.MaxDepthSeen)
}

// goldenSection renders a rewriting as its golden section body: the summary
// line, then one line per kept disjunct with its rule path after a tab.
func goldenSection(res *Result) string {
	var b strings.Builder
	b.WriteString(goldenSummary(res))
	b.WriteByte('\n')
	for i, cq := range res.UCQ.CQs {
		b.WriteString(cq.String())
		b.WriteByte('\t')
		b.WriteString(strings.Join(res.Paths[i], ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGoldenRewriting pins, for every golden case, the counters of the
// rewriting (Complete, Generated, Kept, LargestCQ, MaxDepthSeen), every
// kept disjunct's rule path, and every kept disjunct up to equivalence:
// disjunct i must be Equivalent to the golden disjunct i
// (testdata/rewritings.golden, one "== name" section per case). Variable
// names are not pinned, since they depend on how rule copies are numbered.
func TestGoldenRewriting(t *testing.T) {
	raw, err := os.ReadFile("testdata/rewritings.golden")
	if err != nil {
		t.Fatal(err)
	}
	sections := make(map[string][]string)
	var order []string
	for _, sec := range strings.Split(string(raw), "== ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		sections[name] = strings.Split(strings.TrimSuffix(body, "\n"), "\n")
		order = append(order, name)
	}
	cases := goldenCases()
	if len(cases) != len(order) {
		t.Fatalf("%d golden cases, %d golden sections", len(cases), len(order))
	}
	for i, gc := range cases {
		if gc.name != order[i] {
			t.Fatalf("case %d is %s, golden section %s", i, gc.name, order[i])
		}
		res := Rewrite(gc.q, gc.rules, Options{MaxCQs: gc.maxCQs})
		lines := sections[gc.name]
		if got := goldenSummary(res); got != lines[0] {
			t.Errorf("%s: %s, golden %s", gc.name, got, lines[0])
			continue
		}
		for j, line := range lines[1:] {
			src, path, _ := strings.Cut(line, "\t")
			want := mustQ(src)
			if got := res.UCQ.CQs[j]; !got.Equivalent(want) {
				t.Errorf("%s: disjunct %d is %v, golden %v", gc.name, j, got, want)
			}
			if got := strings.Join(res.Paths[j], ","); got != path {
				t.Errorf("%s: disjunct %d path %q, golden %q", gc.name, j, got, path)
			}
		}
	}
}

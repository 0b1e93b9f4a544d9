package rewrite

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/storage"
)

func v(n string) logic.Term { return logic.NewVar(n) }
func c(n string) logic.Term { return logic.NewConst(n) }
func at(p string, args ...logic.Term) logic.Atom {
	return logic.NewAtom(p, args...)
}

func mustQ(src string) *query.CQ {
	pq := parser.MustParseQuery(src)
	return query.MustNew(pq.Head, pq.Body)
}

func TestRewriteClassHierarchy(t *testing.T) {
	rules := parser.MustParseRules(`
student(X) -> person(X) .
teacher(X) -> person(X) .
`)
	res := Rewrite(mustQ(`q(X) :- person(X) .`), rules, DefaultOptions())
	if !res.Complete {
		t.Fatal("hierarchy rewriting must complete")
	}
	if res.Kept != 3 {
		t.Fatalf("want 3 disjuncts (person, student, teacher), got %d:\n%s",
			res.Kept, res.UCQ)
	}
}

func TestRewriteExistentialErasure(t *testing.T) {
	// person(X) -> hasParent(X,Y): q(X) :- hasParent(X,Y) rewrites to
	// person(X) because Y is an unshared existential.
	rules := parser.MustParseRules(`person(X) -> hasParent(X,Y) .`)
	res := Rewrite(mustQ(`q(X) :- hasParent(X,Y) .`), rules, DefaultOptions())
	if !res.Complete || res.Kept != 2 {
		t.Fatalf("want 2 disjuncts, got %d (complete=%v):\n%s", res.Kept, res.Complete, res.UCQ)
	}
	want := mustQ(`q(X) :- person(X) .`)
	found := false
	for _, cq := range res.UCQ.CQs {
		if cq.Equivalent(want) {
			found = true
		}
	}
	if !found {
		t.Errorf("missing person(X) disjunct:\n%s", res.UCQ)
	}
}

func TestRewriteExistentialBlockedByAnswerVar(t *testing.T) {
	// q(X,Y) :- hasParent(X,Y): Y is an answer variable, so the rule cannot
	// erase it — the rewriting is just the original query.
	rules := parser.MustParseRules(`person(X) -> hasParent(X,Y) .`)
	res := Rewrite(mustQ(`q(X,Y) :- hasParent(X,Y) .`), rules, DefaultOptions())
	if !res.Complete || res.Kept != 1 {
		t.Fatalf("want only the original disjunct, got %d:\n%s", res.Kept, res.UCQ)
	}
}

func TestRewriteExistentialBlockedByJoin(t *testing.T) {
	// Y is shared with another atom outside the piece: not applicable on
	// the hasParent atom alone; but the pair {hasParent, person} is also
	// not unifiable with the single head atom. Only rewritings of the
	// person(Y) atom itself can fire.
	rules := parser.MustParseRules(`person(X) -> hasParent(X,Y) .`)
	res := Rewrite(mustQ(`q(X) :- hasParent(X,Y), person(Y) .`), rules, DefaultOptions())
	if !res.Complete {
		t.Fatal("must complete")
	}
	for _, cq := range res.UCQ.CQs {
		for _, a := range cq.Body {
			if a.Pred == "person" && len(cq.Body) == 1 {
				t.Errorf("join variable was wrongly erased: %v", cq)
			}
		}
	}
}

func TestRewriteConstantBlocksExistential(t *testing.T) {
	// q() :- hasParent(X, "bob"): the existential head variable cannot
	// unify with the constant bob, so no rewriting step applies.
	rules := parser.MustParseRules(`person(X) -> hasParent(X,Y) .`)
	res := Rewrite(mustQ(`q() :- hasParent(X, "bob") .`), rules, DefaultOptions())
	if !res.Complete || res.Kept != 1 {
		t.Fatalf("constant must block the step:\n%s", res.UCQ)
	}
}

func TestRewriteChainDepth(t *testing.T) {
	rules := parser.MustParseRules(`
a(X) -> b(X) .
b(X) -> c(X) .
c(X) -> d(X) .
`)
	res := Rewrite(mustQ(`q(X) :- d(X) .`), rules, DefaultOptions())
	if !res.Complete || res.Kept != 4 {
		t.Fatalf("want 4 disjuncts d,c,b,a got %d:\n%s", res.Kept, res.UCQ)
	}
	if res.MaxDepthSeen != 3 {
		t.Errorf("MaxDepthSeen = %d, want 3", res.MaxDepthSeen)
	}
}

func TestRewritePaperExample1Terminates(t *testing.T) {
	// SWR set (paper Example 1 / Figure 1): rewriting of any CQ terminates.
	rules := parser.MustParseRules(`
s(Y1,Y2,Y3), t(Y4) -> r(Y1,Y3) .
v(Y1,Y2), q(Y2) -> s(Y1,Y3,Y2) .
r(Y1,Y2) -> v(Y1,Y2) .
`)
	for _, src := range []string{
		`ans(X,Y) :- r(X,Y) .`,
		`ans(X) :- s(X,Y,Z) .`,
		`ans(X,Y) :- v(X,Y) .`,
		`ans(X) :- r(X,Y), v(Y,Z) .`,
	} {
		res := Rewrite(mustQ(src), rules, DefaultOptions())
		if !res.Complete {
			t.Errorf("rewriting of %s must terminate (SWR set)", src)
		}
	}
}

func TestRewriteExample2UnboundedChain(t *testing.T) {
	// Paper Example 2: q() :- r("a",X) produces an unbounded chain of
	// existential join variables; the rewriting must blow past any budget
	// with strictly growing CQs.
	rules := parser.MustParseRules(`
t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .
s(Y1,Y1,Y2) -> r(Y2,Y3) .
`)
	res := Rewrite(mustQ(`q() :- r("a",X) .`), rules, Options{MaxCQs: 60})
	if res.Complete {
		t.Fatalf("Example 2 rewriting must not complete within 60 CQs (kept=%d)", res.Kept)
	}
	if res.LargestCQ < 4 {
		t.Errorf("unbounded chain expected: largest CQ only %d atoms", res.LargestCQ)
	}
}

func TestRewriteExample3Terminates(t *testing.T) {
	// Paper Example 3: in no previously known class, but FO-rewritable —
	// the apparent recursion r -> t -> s -> r never fires.
	rules := parser.MustParseRules(`
r(Y1,Y2) -> t(Y3,Y1,Y1) .
s(Y1,Y2,Y3) -> r(Y1,Y2) .
u(Y1), t(Y1,Y1,Y2) -> s(Y1,Y1,Y2) .
`)
	for _, src := range []string{
		`ans(X,Y) :- r(X,Y) .`,
		`ans(X,Y,Z) :- t(X,Y,Z) .`,
		`ans(X,Y,Z) :- s(X,Y,Z) .`,
		`ans(X) :- s(X,X,Y) .`,
		`ans() :- t(X,X,Y), u(X) .`,
	} {
		res := Rewrite(mustQ(src), rules, DefaultOptions())
		if !res.Complete {
			t.Errorf("rewriting of %s must terminate (Example 3 is FO-rewritable)", src)
		}
	}
}

func TestRewriteFactorization(t *testing.T) {
	// Two query atoms unify with the same head atom (factorization):
	// q(X) :- hasChild(X,Y), hasChild(X,Z) over person(W) -> hasChild(W,V).
	// Erasing Y and Z separately is blocked only if shared; here they are
	// independent, and the factored piece {both atoms} also applies.
	rules := parser.MustParseRules(`person(W) -> hasChild(W,V) .`)
	res := Rewrite(mustQ(`q(X) :- hasChild(X,Y), hasChild(X,Z) .`), rules, DefaultOptions())
	if !res.Complete {
		t.Fatal("must complete")
	}
	want := mustQ(`q(X) :- person(X) .`)
	found := false
	for _, cq := range res.UCQ.CQs {
		if cq.Equivalent(want) {
			found = true
		}
	}
	if !found {
		t.Errorf("factorized person(X) disjunct missing:\n%s", res.UCQ)
	}
}

func TestRewriteMultiHeadPiece(t *testing.T) {
	// Rule with a two-atom head sharing an existential: both query atoms
	// must be absorbed in one piece for the step to be applicable.
	rules := parser.MustParseRules(`emp(X) -> worksFor(X,Y), dept(Y) .`)
	res := Rewrite(mustQ(`q(X) :- worksFor(X,Y), dept(Y) .`), rules, DefaultOptions())
	if !res.Complete {
		t.Fatal("must complete")
	}
	want := mustQ(`q(X) :- emp(X) .`)
	found := false
	for _, cq := range res.UCQ.CQs {
		if cq.Equivalent(want) {
			found = true
		}
	}
	if !found {
		t.Errorf("multi-head piece rewriting missing emp(X):\n%s", res.UCQ)
	}
	// The single atom worksFor(X,Y) alone must NOT rewrite to emp(X) while
	// Y is shared with dept(Y) outside the piece — check no unsound
	// disjunct dropped dept.
	for _, cq := range res.UCQ.CQs {
		if len(cq.Body) == 1 && cq.Body[0].Pred == "emp" {
			continue
		}
		if len(cq.Body) == 1 && cq.Body[0].Pred == "worksFor" {
			t.Errorf("unsound disjunct %v", cq)
		}
	}
}

func TestRewriteSubsumptionPruning(t *testing.T) {
	rules := parser.MustParseRules(`p(X,X) -> r(X,X) .`)
	// r(X,Y) subsumes anything derived for r(X,X); derived p disjunct kept.
	res := Rewrite(mustQ(`q(X) :- r(X,X) .`), rules, DefaultOptions())
	if !res.Complete || res.Kept != 2 {
		t.Fatalf("want 2 disjuncts, got %d:\n%s", res.Kept, res.UCQ)
	}
}

// certEquals checks rewriting-based and chase-based certain answers agree.
func certEquals(t *testing.T, rulesSrc, qSrc string, facts []logic.Atom) {
	t.Helper()
	rules := parser.MustParseRules(rulesSrc)
	q := mustQ(qSrc)
	res := Rewrite(q, rules, DefaultOptions())
	if !res.Complete {
		t.Fatalf("rewriting incomplete for %s", qSrc)
	}
	d := storage.MustFromAtoms(facts)
	rewAns := eval.UCQ(res.UCQ, d, eval.Options{FilterNulls: true})
	chaseAns, chRes := chase.CertainAnswers(query.MustNewUCQ(q), rules, d, chase.Options{})
	if !chRes.Terminated {
		t.Fatalf("chase did not terminate; cannot compare")
	}
	if !rewAns.Equal(chaseAns) {
		t.Errorf("rewriting and chase disagree for %s:\nrewriting: %v\nchase: %v\nUCQ:\n%s",
			qSrc, rewAns, chaseAns, res.UCQ)
	}
}

func TestRewriteChaseAgreementHierarchy(t *testing.T) {
	certEquals(t, `
student(X) -> person(X) .
teacher(X) -> person(X) .
person(X) -> agent(X) .
`, `q(X) :- agent(X) .`, []logic.Atom{
		at("student", c("s1")), at("teacher", c("t1")), at("person", c("p1")),
	})
}

func TestRewriteChaseAgreementExistential(t *testing.T) {
	certEquals(t, `
person(X) -> hasParent(X,Y) .
hasParent(X,Y) -> adult(X) .
`, `q(X) :- adult(X) .`, []logic.Atom{
		at("person", c("a")), at("hasParent", c("b"), c("cc")),
	})
}

func TestRewriteSoundOnDivergingChase(t *testing.T) {
	// person(X) -> hasParent(X,Y); hasParent(X,Y) -> person(Y): the chase
	// diverges (infinite ancestor chain of nulls), but the rewriting is
	// finite and complete. A truncated chase under-approximates cert, so
	// its answers must be a subset of the rewriting's.
	rules := parser.MustParseRules(`
person(X) -> hasParent(X,Y) .
hasParent(X,Y) -> person(Y) .
`)
	q := mustQ(`q(X) :- hasParent(X,Y) .`)
	res := Rewrite(q, rules, DefaultOptions())
	if !res.Complete {
		t.Fatal("rewriting must complete (finite closure)")
	}
	d := storage.MustFromAtoms([]logic.Atom{
		at("person", c("a")), at("hasParent", c("b"), c("cc")),
	})
	rewAns := eval.UCQ(res.UCQ, d, eval.Options{FilterNulls: true})
	chaseAns, chRes := chase.CertainAnswers(query.MustNewUCQ(q), rules, d,
		chase.Options{MaxRounds: 8})
	if chRes.Terminated {
		t.Log("chase unexpectedly terminated; subset check still valid")
	}
	if diff := chaseAns.Minus(rewAns); len(diff) != 0 {
		t.Errorf("truncated chase found answers the rewriting missed: %v", diff)
	}
	// Both a (from person) and b (explicit) must be answers.
	if !rewAns.Contains(storage.Tuple{c("a")}) || !rewAns.Contains(storage.Tuple{c("b")}) {
		t.Errorf("rewriting answers = %v, want {a, b}", rewAns)
	}
}

func TestRewriteChaseAgreementJoins(t *testing.T) {
	certEquals(t, `
s(Y1,Y2,Y3), t(Y4) -> r(Y1,Y3) .
v(Y1,Y2), q0(Y2) -> s(Y1,Y3,Y2) .
r(Y1,Y2) -> v(Y1,Y2) .
`, `q(X,Y) :- r(X,Y) .`, []logic.Atom{
		at("s", c("a"), c("b"), c("cc")), at("t", c("d")),
		at("v", c("e"), c("f")), at("q0", c("f")),
	})
}

func TestRewriteChaseAgreementExample3(t *testing.T) {
	certEquals(t, `
r(Y1,Y2) -> t(Y3,Y1,Y1) .
s(Y1,Y2,Y3) -> r(Y1,Y2) .
u(Y1), t(Y1,Y1,Y2) -> s(Y1,Y1,Y2) .
`, `q(X,Y) :- r(X,Y) .`, []logic.Atom{
		at("s", c("a"), c("b"), c("cc")),
		at("u", c("k")), at("t", c("k"), c("k"), c("m")),
		at("r", c("x"), c("y")),
	})
}

func TestRewriteChaseAgreementConstantsInQuery(t *testing.T) {
	certEquals(t, `
cat(X) -> animal(X) .
`, `q() :- animal("tom") .`, []logic.Atom{at("cat", c("tom"))})
}

func TestRewriteUCQInput(t *testing.T) {
	rules := parser.MustParseRules(`a(X) -> b(X) .`)
	u := query.MustNewUCQ(mustQ(`q(X) :- b(X) .`), mustQ(`q(X) :- a(X) .`))
	res := RewriteUCQ(u, rules, DefaultOptions())
	if !res.Complete || res.Kept != 2 {
		t.Fatalf("UCQ rewriting = %d disjuncts:\n%s", res.Kept, res.UCQ)
	}
}

func TestRewriteGeneratedCounts(t *testing.T) {
	rules := parser.MustParseRules(`a(X) -> b(X) .`)
	res := Rewrite(mustQ(`q(X) :- b(X) .`), rules, DefaultOptions())
	if res.Generated < 2 || res.Kept != 2 {
		t.Errorf("counters wrong: generated=%d kept=%d", res.Generated, res.Kept)
	}
}

func TestRewriteProvenancePaths(t *testing.T) {
	rules := parser.MustParseRules(`
a(X) -> b(X) .
b(X) -> c(X) .
`)
	res := Rewrite(mustQ(`q(X) :- c(X) .`), rules, DefaultOptions())
	if !res.Complete || res.Kept != 3 {
		t.Fatalf("kept=%d complete=%v", res.Kept, res.Complete)
	}
	if len(res.Paths) != res.Kept {
		t.Fatalf("Paths length %d != Kept %d", len(res.Paths), res.Kept)
	}
	// Find each disjunct's path by its single body predicate.
	want := map[string][]string{"c": {}, "b": {"R2"}, "a": {"R2", "R1"}}
	for i, cq := range res.UCQ.CQs {
		pred := cq.Body[0].Pred
		w, ok := want[pred]
		if !ok {
			t.Fatalf("unexpected disjunct %v", cq)
		}
		got := res.Paths[i]
		if len(got) != len(w) {
			t.Errorf("path for %s = %v, want %v", pred, got, w)
			continue
		}
		for j := range w {
			if got[j] != w[j] {
				t.Errorf("path for %s = %v, want %v", pred, got, w)
				break
			}
		}
	}
}

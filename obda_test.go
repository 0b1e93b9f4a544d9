package repro

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/storage"
)

// bg is the context the tests answer and mutate under when they test
// neither cancellation nor deadlines.
var bg = context.Background()

const universityMini = `
% rules
student(X) -> person(X) .
teacher(X) -> person(X) .
person(X) -> hasParent(X, Y) .
% data
student(alice) .
teacher(bob) .
hasParent(alice, carol) .
`

func TestParseMixed(t *testing.T) {
	o := MustParse(universityMini)
	if o.Rules().Len() != 3 {
		t.Errorf("rules = %d", o.Rules().Len())
	}
	if o.Data().Size() != 3 {
		t.Errorf("facts = %d", o.Data().Size())
	}
}

// parseBoth builds program through Parse and through ParseFiles (as one
// rules file), returning the two errors by entry point.
func parseBoth(t *testing.T, program string) map[string]error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "program.rules")
	if err := os.WriteFile(path, []byte(program), 0o644); err != nil {
		t.Fatal(err)
	}
	_, perr := Parse(program)
	_, ferr := ParseFiles(path)
	return map[string]error{"Parse": perr, "ParseFiles": ferr}
}

func TestParseRejectsQueries(t *testing.T) {
	for entry, err := range parseBoth(t, `p(X) -> q(X) . q(X) :- p(X) .`) {
		if err == nil {
			t.Errorf("%s: queries in ontology text must be rejected", entry)
		}
	}
}

// TestParseRejectsArityConflicts: the chase relies on every predicate having
// one arity across the rules and the data, so both program entry points
// refuse a program that breaks it, naming the predicate.
func TestParseRejectsArityConflicts(t *testing.T) {
	for _, tc := range []struct{ program, pred string }{
		{`p(X) -> q(X, Y) . q(a) . p(b) .`, "q"},  // fact against a rule head
		{`p(X) -> q(X) . p(a, b) .`, "p"},         // fact against a rule body
		{`p(X) -> q(X) . p(X, Y) -> r(X) .`, "p"}, // rule against rule
		{`p(a) . p(a, b) .`, "p"},                 // fact against fact
	} {
		for entry, err := range parseBoth(t, tc.program) {
			if err == nil || !strings.Contains(err.Error(), " "+tc.pred+" ") {
				t.Errorf("%s(%q) = %v, want an error naming %s", entry, tc.program, err, tc.pred)
			}
		}
	}
	// A data file is checked against the rules file's signature too.
	dir := t.TempDir()
	rules, data := filepath.Join(dir, "split.rules"), filepath.Join(dir, "split.facts")
	if err := os.WriteFile(rules, []byte(`p(X) -> q(X, Y) . p(b) .`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(data, []byte(`q(a) .`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFiles(rules, data); err == nil || !strings.Contains(err.Error(), " q ") {
		t.Errorf("ParseFiles with a clashing data file = %v, want an error naming q", err)
	}
}

// TestAddFactChecksRuleSignature: a fact for a predicate that no relation
// stores yet is checked against the rules' signature, so the chase never
// meets two arities for one predicate.
func TestAddFactChecksRuleSignature(t *testing.T) {
	ont := MustParse(`p(X) -> q(X, Y) . p(b) .`)
	if err := ont.AddFact(`q(a) .`); err == nil || !strings.Contains(err.Error(), " q ") {
		t.Errorf("AddFact(q(a)) = %v, want an error naming q", err)
	}
	if _, err := ont.LoadCSVCtx(bg, "q", strings.NewReader("a\n")); err == nil {
		t.Error("LoadCSV of one column into q/2 must be rejected")
	}
	if err := ont.AddFact(`q(a, c) .`); err != nil {
		t.Fatal(err)
	}
	ans, err := ont.AnswerCtx(bg, `ans(X) :- q(X, Y) .`, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 {
		t.Errorf("answers = %v, want a and b", ans)
	}
}

func TestClassifyAndStrategy(t *testing.T) {
	o := MustParse(universityMini)
	rep := o.Classify()
	if !rep.FORewritable {
		t.Fatal("hierarchy + existential must be FO-rewritable")
	}
	if rep.Strategy() != "rewrite" {
		t.Errorf("strategy = %q", rep.Strategy())
	}
	if rep2 := o.Classify(); rep2 != rep {
		t.Error("classification must be cached")
	}
}

func TestAnswerAuto(t *testing.T) {
	o := MustParse(universityMini)
	ans, err := o.AnswerCtx(bg, `q(X) :- person(X) .`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 {
		t.Fatalf("answers = %v, want alice and bob", ans)
	}
	for _, name := range []string{"alice", "bob"} {
		if !ans.Contains(storage.Tuple{logic.NewConst(name)}) {
			t.Errorf("missing %s", name)
		}
	}
}

func TestAnswerModesAgree(t *testing.T) {
	o := MustParse(universityMini)
	q := `q(X) :- hasParent(X, Y) .`
	rw, err := o.AnswerCtx(bg, q, Options{Mode: ModeRewrite})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := o.AnswerCtx(bg, q, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	if !rw.Equal(ch) {
		t.Errorf("modes disagree:\nrewrite: %v\nchase: %v", rw, ch)
	}
	// Everyone has a parent (alice, bob via the existential rule).
	if rw.Len() != 2 {
		t.Errorf("answers = %v", rw)
	}
}

func TestAnswerWithConstant(t *testing.T) {
	o := MustParse(universityMini)
	ans, err := o.AnswerCtx(bg, `q() :- hasParent(alice, carol) .`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Error("boolean query must hold")
	}
	none, err := o.AnswerCtx(bg, `q() :- hasParent(bob, carol) .`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if none.Len() != 0 {
		t.Error("bob's parent is an unknown null, not carol")
	}
}

// TestRewriteUnfoldsHierarchy: person's rewriting is the union of person
// and the two classes below it.
func TestRewriteUnfoldsHierarchy(t *testing.T) {
	o := MustParse(universityMini)
	rw, err := o.RewriteCtx(bg, `q(X) :- person(X) .`)
	if err != nil {
		t.Fatal(err)
	}
	if !rw.Complete || rw.UCQ.Len() != 3 {
		t.Fatalf("rewriting = %d disjuncts (complete=%v):\n%s",
			rw.UCQ.Len(), rw.Complete, rw)
	}
	for _, pred := range []string{"person(", "student(", "teacher("} {
		if !strings.Contains(rw.String(), pred) {
			t.Errorf("rewriting missing %s:\n%s", pred, rw)
		}
	}
}

func TestAddFact(t *testing.T) {
	o := MustParse(`student(X) -> person(X) .`)
	if err := o.AddFact(`student(dora) .`); err != nil {
		t.Fatal(err)
	}
	ans, err := o.AnswerCtx(bg, `q(X) :- person(X) .`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Errorf("answers = %v", ans)
	}
}

func TestChaseFacade(t *testing.T) {
	o := MustParse(universityMini)
	res := o.ChaseCtx(bg, Options{})
	if !res.Terminated {
		t.Fatal("chase must terminate")
	}
	if res.Instance.Relation("person") == nil {
		t.Error("chase must derive person facts")
	}
	// Original data untouched.
	if o.Data().Relation("person") != nil {
		t.Error("Chase must not mutate the ontology's data")
	}
}

func TestAnswerChaseOnNonRewritable(t *testing.T) {
	// Paper Example 2: not FO-rewritable but weakly acyclic; ModeAuto must
	// fall back to the chase and succeed.
	o := MustParse(`
t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .
s(Y1,Y1,Y2) -> r(Y2,Y3) .
t(a,a) .
r(a,b) .
`)
	rep := o.Classify()
	if rep.FORewritable {
		t.Fatal("Example 2 must not be FO-rewritable")
	}
	ans, err := o.AnswerCtx(bg, `q(X,Y,Z) :- s(X,Y,Z) .`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 || !ans.Contains(storage.Tuple{
		logic.NewConst("a"), logic.NewConst("a"), logic.NewConst("a")}) {
		t.Errorf("answers = %v, want {(a,a,a)}", ans)
	}
}

func TestParseQueryErrors(t *testing.T) {
	if _, err := ParseQuery(`p(X) -> q(X) .`); err == nil {
		t.Error("rules must be rejected by ParseQuery")
	}
	if _, err := ParseQuery(`q(X) :- `); err == nil {
		t.Error("truncated query must error")
	}
}

func TestAnswerModeUnknown(t *testing.T) {
	o := MustParse(`a(X) -> b(X) .`)
	if _, err := o.AnswerCtx(bg, `q(X) :- b(X) .`, Options{Mode: AnswerMode(99)}); err == nil {
		t.Error("unknown mode must error")
	}
}

// TestPerQueryRewritingAnswersDivergingChase: the chase of this set never
// ends, yet the query's own rewriting reaches a fixpoint, so ModeAuto and
// ModeRewrite answer it exactly while ModeChase runs out of budget.
func TestPerQueryRewritingAnswersDivergingChase(t *testing.T) {
	ont := MustParse(`
person(X) -> hasParent(X,Y) .
hasParent(X,Y) -> person(Y) .
person(ann) .
hasParent(bo, cy) .
`)
	const q = `q(X) :- hasParent(X,P) .`
	for _, mode := range []AnswerMode{ModeAuto, ModeRewrite} {
		ans, err := ont.AnswerCtx(bg, q, Options{Mode: mode})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		// ann (person rule), bo (explicit), and cy: hasParent(bo,cy) makes
		// cy a person, who in turn certainly has a parent.
		if ans.Len() != 3 {
			t.Errorf("mode %d: answers = %v, want ann, bo and cy", mode, ans)
		}
	}
	if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase, MaxSteps: 200}); err == nil {
		t.Error("the chase of this set diverges; ModeChase must report its budget")
	}
}

// TestRewritingBudgetMissChaseAnswers: paper Example 2, whose boolean query
// has no finite rewriting but whose chase terminates (weakly acyclic).
// ModeRewrite reports its budget instead of answering; ModeChase answers.
func TestRewritingBudgetMissChaseAnswers(t *testing.T) {
	ont := MustParse(`
t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .
s(Y1,Y1,Y2) -> r(Y2,Y3) .
t(a,a) .
r(a,b) .
`)
	const q = `q() :- r(a,X) .`
	if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeRewrite, MaxRewriteCQs: 30}); err == nil {
		t.Error("Example 2's boolean query is not rewritable within 30 CQs; ModeRewrite must error")
	}
	ans, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Errorf("r(a,_) certainly holds: %v", ans)
	}
}

func TestFacadeLoadCSV(t *testing.T) {
	ont := MustParse(`employee(X,D) -> person(X) .`)
	n, err := ont.LoadCSVCtx(bg, "employee", strings.NewReader("ann,sales\nbob,eng\n"))
	if err != nil || n != 2 {
		t.Fatalf("LoadCSV: n=%d err=%v", n, err)
	}
	ans, err := ont.AnswerCtx(bg, `q(X) :- person(X) .`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 {
		t.Errorf("answers = %v", ans)
	}
}

// TestFactsWithNULInNamesStayDistinct: names may hold NUL bytes, through
// quoted parser strings and CSV fields. The facts p("a\x000b", c) and
// p(a, "b\x000c") are distinct, and both must be stored and answered — a key
// that wrote names raw between NUL separators gave both the same key, and the
// second was dropped as a duplicate.
func TestFactsWithNULInNamesStayDistinct(t *testing.T) {
	x := storage.Tuple{logic.NewConst("a\x000b"), logic.NewConst("c")}
	y := storage.Tuple{logic.NewConst("a"), logic.NewConst("b\x000c")}
	check := func(t *testing.T, ont *Ontology) {
		t.Helper()
		if n := ont.Data().Relation("p").Len(); n != 2 {
			t.Errorf("stored %d p facts, want 2", n)
		}
		for _, mode := range []AnswerMode{ModeAuto, ModeChase} {
			ans, err := ont.AnswerCtx(bg, `q(X, Y) :- p(X, Y) .`, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if ans.Len() != 2 || !ans.Contains(x) || !ans.Contains(y) {
				t.Errorf("mode %v answers %q, want both facts", mode, ans.Tuples())
			}
		}
	}
	t.Run("LoadCSVCtx", func(t *testing.T) {
		ont := MustParse(`p(X, Y) -> s(X) .`)
		n, err := ont.LoadCSVCtx(bg, "p", strings.NewReader("a\x000b,c\na,b\x000c\n"))
		if err != nil || n != 2 {
			t.Fatalf("LoadCSVCtx added %d (err %v), want 2", n, err)
		}
		check(t, ont)
	})
	t.Run("AddFactCtx", func(t *testing.T) {
		ont := MustParse(`p(X, Y) -> s(X) .`)
		if err := ont.AddFactCtx(bg, "p(\"a\x000b\", c) . p(a, \"b\x000c\") ."); err != nil {
			t.Fatal(err)
		}
		check(t, ont)
	})
}

// TestDeleteFactWithNULInNameRepairsChase: deleting a fact whose name holds
// a NUL byte from a materialized ontology repairs the chase incrementally —
// the consequence derived from it goes, and chase-mode answers see that.
func TestDeleteFactWithNULInNameRepairsChase(t *testing.T) {
	ont := MustParse("p(X) -> s(X) . p(\"a\x00b\") . p(a) . p(b) . p(c) .")
	query := `q(X) :- s(X) .`
	answer := func() *Answers {
		t.Helper()
		ans, err := ont.AnswerCtx(bg, query, Options{Mode: ModeChase})
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}
	if n := answer().Len(); n != 4 {
		t.Fatalf("before the deletions: %d answers, want 4", n)
	}
	// Both deletions are repaired by DRed; the second must not rebuild.
	if _, err := ont.DeleteFactCtx(bg, `p(c) .`); err != nil {
		t.Fatal(err)
	}
	answer()
	before := ont.MaterializationStats().FullRebuilds
	if n, err := ont.DeleteFactCtx(bg, "p(\"a\x00b\") ."); err != nil || n != 1 {
		t.Fatalf("DeleteFactCtx removed %d (err %v), want 1", n, err)
	}
	ans := answer()
	if s := ont.MaterializationStats(); s.FullRebuilds != before {
		t.Fatalf("the deletion rebuilt the materialization (stats %+v), want an incremental repair", s)
	}
	if ans.Len() != 2 || ans.Contains(storage.Tuple{logic.NewConst("a\x00b")}) {
		t.Errorf("answers after deleting p(\"a\\x00b\") = %q, want a and b", ans.Tuples())
	}
}

// TestQueriesDifferingByAControlByteStayDistinct: q(X) :- p(X, "a\x01r") .
// and q(X) :- p(X, a), r() . are different queries. Query keys once joined
// atom keys with the byte 0x01, so the two shared a key, and the plan cache
// and the answer-view cache served the first one's answers for the second.
func TestQueriesDifferingByAControlByteStayDistinct(t *testing.T) {
	ont := MustParse("p(a, a) . r() . p(b, \"a\x01r\") .")
	ont.SetAnswerCacheBudget(DefaultAnswerCacheBytes)
	for _, tc := range []struct{ query, want string }{
		{`q(X) :- p(X, a), r() .`, "a"},
		{"q(X) :- p(X, \"a\x01r\") .", "b"},
	} {
		for _, opts := range []Options{{}, {NoCache: true}} {
			ans, err := ont.AnswerCtx(bg, tc.query, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ans.Len() != 1 || ans.Tuples()[0][0] != logic.NewConst(tc.want) {
				t.Errorf("%q (NoCache %v) = %v, want %s", tc.query, opts.NoCache, ans.Tuples(), tc.want)
			}
		}
	}
}

package repro

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/storage"
)

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
	if _, err := ont.LoadCSV("q", strings.NewReader("a\n")); err == nil {
		t.Error("LoadCSV of one column into q/2 must be rejected")
	}
	if err := ont.AddFact(`q(a, c) .`); err != nil {
		t.Fatal(err)
	}
	ans, err := ont.AnswerMode(`ans(X) :- q(X, Y) .`, ModeChase)
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
	ans, err := o.Answer(`q(X) :- person(X) .`)
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
	rw, err := o.AnswerMode(q, ModeRewrite)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := o.AnswerMode(q, ModeChase)
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
	ans, err := o.Answer(`q() :- hasParent(alice, carol) .`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Error("boolean query must hold")
	}
	none, err := o.Answer(`q() :- hasParent(bob, carol) .`)
	if err != nil {
		t.Fatal(err)
	}
	if none.Len() != 0 {
		t.Error("bob's parent is an unknown null, not carol")
	}
}

func TestRewriteAndSQL(t *testing.T) {
	o := MustParse(universityMini)
	rw, err := o.Rewrite(`q(X) :- person(X) .`)
	if err != nil {
		t.Fatal(err)
	}
	if !rw.Complete || rw.UCQ.Len() != 3 {
		t.Fatalf("rewriting = %d disjuncts (complete=%v):\n%s",
			rw.UCQ.Len(), rw.Complete, rw)
	}
	sql, err := rw.SQL()
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{`"person"`, `"student"`, `"teacher"`, "UNION"} {
		if !strings.Contains(sql, tbl) {
			t.Errorf("SQL missing %s:\n%s", tbl, sql)
		}
	}
}

func TestAddFact(t *testing.T) {
	o := MustParse(`student(X) -> person(X) .`)
	if err := o.AddFact(`student(dora) .`); err != nil {
		t.Fatal(err)
	}
	ans, err := o.Answer(`q(X) :- person(X) .`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Errorf("answers = %v", ans)
	}
}

func TestChaseFacade(t *testing.T) {
	o := MustParse(universityMini)
	res := o.Chase()
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
	ans, err := o.Answer(`q(X,Y,Z) :- s(X,Y,Z) .`)
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
	if _, err := o.AnswerMode(`q(X) :- b(X) .`, AnswerMode(99)); err == nil {
		t.Error("unknown mode must error")
	}
}

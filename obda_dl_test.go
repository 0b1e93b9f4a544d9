package repro

import (
	"strings"
	"testing"

	"repro/internal/fol"
	"repro/internal/logic"
	"repro/internal/storage"
)

func TestFromDLLiteEndToEnd(t *testing.T) {
	ont, err := FromDLLite(`
Student <= Person
Professor <= exists teaches
exists teaches- <= Course
`, `
student(ann) .
professor(kim) .
`)
	if err != nil {
		t.Fatal(err)
	}
	rep := ont.Classify()
	if !rep.Is("linear") || !rep.Is("swr") || !rep.Is("wr") {
		t.Error("DL-Lite ontology must be linear, SWR and WR")
	}
	ans, err := ont.Answer(`q(X) :- person(X) .`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 || !ans.Contains(storage.Tuple{logic.NewConst("ann")}) {
		t.Errorf("person answers = %v", ans)
	}
	// kim teaches *something*, so the boolean projection holds.
	course, err := ont.Answer(`q() :- teaches(kim, C) .`)
	if err != nil {
		t.Fatal(err)
	}
	if course.Len() != 1 {
		t.Error("professor kim certainly teaches some course")
	}
}

func TestFromDLLiteErrors(t *testing.T) {
	if _, err := FromDLLite(`broken line`, ""); err == nil {
		t.Error("bad TBox must be rejected")
	}
	if _, err := FromDLLite(`Student <= Person`, `p(X) -> q(X) .`); err == nil {
		t.Error("rules in fact text must be rejected")
	}
	if _, err := FromDLLite(`Student <= Person`, `student(ann, bob) .`); err == nil || !strings.Contains(err.Error(), " student ") {
		t.Errorf("a fact clashing with the TBox signature = %v, want an error naming student", err)
	}
}

func TestFromMappingsEndToEnd(t *testing.T) {
	source := storage.MustFromAtoms([]logic.Atom{
		logic.NewAtom("emp_table", logic.NewConst("ann"), logic.NewConst("sales")),
		logic.NewAtom("emp_table", logic.NewConst("bob"), logic.NewConst("eng")),
	})
	ont, err := FromMappings(`
employee(X) -> person(X) .
worksFor(X, D) -> department(D) .
`, `
employee(X) :- emp_table(X, D) .
worksFor(X, D) :- emp_table(X, D) .
`, source)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ont.Answer(`q(X) :- person(X) .`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 {
		t.Errorf("person answers = %v", ans)
	}
	depts, err := ont.Answer(`q(D) :- department(D) .`)
	if err != nil {
		t.Fatal(err)
	}
	if depts.Len() != 2 {
		t.Errorf("departments = %v", depts)
	}
}

func TestFromMappingsErrors(t *testing.T) {
	src := storage.NewInstance()
	if _, err := FromMappings(`bad`, `p(X) :- s(X) .`, src); err == nil {
		t.Error("bad rules must be rejected")
	}
	if _, err := FromMappings(`a(X) -> b(X) .`, `p(X) -> s(X) .`, src); err == nil {
		t.Error("rule-shaped mapping must be rejected")
	}
	src = storage.MustFromAtoms([]logic.Atom{logic.NewAtom("s", logic.NewConst("x"))})
	if _, err := FromMappings(`a(X, Y) -> b(X) .`, `a(X) :- s(X) .`, src); err == nil || !strings.Contains(err.Error(), " a ") {
		t.Errorf("an ABox clashing with the rules' signature = %v, want an error naming a", err)
	}
}

func TestRewritingFO(t *testing.T) {
	ont := MustParse(`
student(X) -> person(X) .
student(ann) .
person(joe) .
`)
	rw, err := ont.Rewrite(`q(X) :- person(X) .`)
	if err != nil {
		t.Fatal(err)
	}
	f, answer, err := rw.FO()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f.String(), "|") {
		t.Errorf("FO reading should be a disjunction: %s", f)
	}
	tuples := fol.Eval(f, answer, ont.Data(), true)
	if len(tuples) != 2 {
		t.Errorf("FO evaluation = %v, want ann and joe", tuples)
	}
	// Cross-check with the engine's answers.
	ans, err := ont.Answer(`q(X) :- person(X) .`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != len(tuples) {
		t.Errorf("FO eval and engine disagree: %d vs %d", len(tuples), ans.Len())
	}
}

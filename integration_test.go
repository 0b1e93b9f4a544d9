package repro

import (
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/naive"
	"repro/internal/query"
)

// TestFullPipelineUniversity drives the complete system on the LUBM-style
// workload: classification, rewriting, chase, and three-way answer
// agreement on several query shapes — the rewriting evaluated by the engine,
// the chase, and the rewriting evaluated by the nested-loop reference.
func TestFullPipelineUniversity(t *testing.T) {
	rules := datagen.University()
	data := datagen.UniversityData(2, 5)
	ont := newOntology(rules, data)

	rep := ont.Classify()
	if !rep.FORewritable || !rep.Is("wr") {
		t.Fatalf("university must be FO-rewritable via WR:\n%s", rep)
	}

	queries := []string{
		`q(X) :- person(X) .`,
		`q(X) :- employee(X) .`,
		`q(X,Y) :- taughtBy(X,Y) .`,
		`q(X) :- worksFor(X,D) .`,
		`q() :- university(U) .`,
	}
	for _, src := range queries {
		rw, err := ont.RewriteCtx(bg, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !rw.Complete {
			t.Fatalf("%s: rewriting incomplete", src)
		}

		// Path 1: rewriting + join evaluation.
		ansRewrite, err := ont.AnswerCtx(bg, src, Options{Mode: ModeRewrite})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		// Path 2: chase + evaluation.
		ansChase, err := ont.AnswerCtx(bg, src, Options{Mode: ModeChase})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !ansRewrite.Equal(ansChase) {
			t.Errorf("%s: rewrite/chase disagree:\n%v\nvs\n%v", src, ansRewrite, ansChase)
		}
		// Path 3: the rewriting over the base facts, by the reference.
		if ref, got := naive.Answers(rw.UCQ, data.Atoms()), naive.RenderAll(ansRewrite.Tuples()); !slices.Equal(ref, got) {
			t.Errorf("%s: reference evaluation of the rewriting disagrees:\n%v\nvs\n%v", src, ref, got)
		}
	}
}

// TestRewritingIsDataIndependent: the compiled UCQ is identical across
// databases — the essence of FO-rewritability (compile once, run anywhere).
func TestRewritingIsDataIndependent(t *testing.T) {
	rules := datagen.University()
	ont1 := newOntology(rules, datagen.UniversityData(1, 1))
	ont2 := newOntology(rules, datagen.UniversityData(5, 99))
	rw1, err := ont1.RewriteCtx(bg, `q(X) :- faculty(X) .`)
	if err != nil {
		t.Fatal(err)
	}
	rw2, err := ont2.RewriteCtx(bg, `q(X) :- faculty(X) .`)
	if err != nil {
		t.Fatal(err)
	}
	if rw1.UCQ.String() != rw2.UCQ.String() {
		t.Error("rewriting must not depend on the data")
	}
	// And evaluating rw1's UCQ on ont2's data equals ont2's own answers.
	ans := eval.UCQ(rw1.UCQ, ont2.Data(), eval.Options{FilterNulls: true})
	own, err := ont2.AnswerCtx(bg, `q(X) :- faculty(X) .`, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Equal(own) {
		t.Errorf("cross-database evaluation disagrees: %v vs %v", ans, own)
	}
}

// TestBooleanQueryAcrossModes: arity-0 queries behave identically in every
// mode, including over empty data.
func TestBooleanQueryAcrossModes(t *testing.T) {
	ont := MustParse(`
cat(X) -> animal(X) .
cat(tom) .
`)
	for _, mode := range []AnswerMode{ModeAuto, ModeRewrite, ModeChase} {
		ans, err := ont.AnswerCtx(bg, `q() :- animal(X) .`, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if ans.Len() != 1 {
			t.Errorf("mode %d: boolean query must hold", mode)
		}
	}
	empty := MustParse(`cat(X) -> animal(X) .`)
	ans, err := empty.AnswerCtx(bg, `q() :- animal(X) .`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 0 {
		t.Error("no data, no answer")
	}
}

// TestUCQAnswerViaMultipleClauses: a UCQ posed as several disjuncts through
// the query package evaluates as their union.
func TestUCQAnswerViaMultipleClauses(t *testing.T) {
	ont := MustParse(`
dog(rex) .
cat(tom) .
`)
	q1, _ := ParseQuery(`q(X) :- dog(X) .`)
	q2, _ := ParseQuery(`q(X) :- cat(X) .`)
	u := query.MustNewUCQ(q1, q2)
	ans := eval.UCQ(u, ont.Data(), eval.Options{})
	if ans.Len() != 2 {
		t.Errorf("union = %v", ans)
	}
}

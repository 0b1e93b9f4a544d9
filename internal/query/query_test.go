package query

import (
	"testing"

	"repro/internal/logic"
)

func v(n string) logic.Term { return logic.NewVar(n) }
func c(n string) logic.Term { return logic.NewConst(n) }
func at(p string, args ...logic.Term) logic.Atom {
	return logic.NewAtom(p, args...)
}

func cq(head logic.Atom, body ...logic.Atom) *CQ { return MustNew(head, body) }

func TestValidate(t *testing.T) {
	if _, err := New(at("q", v("X")), nil); err == nil {
		t.Error("empty body must be rejected")
	}
	if _, err := New(at("q", v("X")), []logic.Atom{at("r", v("Y"))}); err == nil {
		t.Error("unsafe head variable must be rejected")
	}
	if _, err := New(at("q", logic.NewNull("n")), []logic.Atom{at("r", v("Y"))}); err == nil {
		t.Error("null in head must be rejected")
	}
	if _, err := New(at("q", c("a")), []logic.Atom{at("r", v("Y"))}); err != nil {
		t.Error("constant in head is fine:", err)
	}
}

func TestVariableClassification(t *testing.T) {
	q := cq(at("q", v("X")), at("r", v("X"), v("Y")), at("s", v("Y"), v("Z")))
	if got := q.AnswerVars(); len(got) != 1 || got[0] != v("X") {
		t.Errorf("AnswerVars = %v", got)
	}
	ex := q.ExistentialVars()
	if len(ex) != 2 || ex[0] != v("Y") || ex[1] != v("Z") {
		t.Errorf("ExistentialVars = %v", ex)
	}
	// Y occurs in two atoms => NLE; Z only in one.
	nle := q.NLEVars()
	if len(nle) != 1 || nle[0] != v("Y") {
		t.Errorf("NLEVars = %v, want [Y]", nle)
	}
}

func TestCanonicalRenamingInvariance(t *testing.T) {
	q1 := cq(at("q", v("X")), at("r", v("X"), v("Y")))
	q2 := cq(at("q", v("A")), at("r", v("A"), v("B")))
	if q1.Canonical().Key() != q2.Canonical().Key() {
		t.Error("alpha-equivalent queries must share canonical keys")
	}
	q3 := cq(at("q", v("X")), at("r", v("Y"), v("X")))
	if q1.Canonical().Key() == q3.Canonical().Key() {
		t.Error("different variable patterns must not collide")
	}
}

func TestDedupKeyOrderInvariance(t *testing.T) {
	q1 := cq(at("q", v("X")), at("r", v("X"), v("Y")), at("s", v("Y")))
	q2 := cq(at("q", v("A")), at("s", v("B")), at("r", v("A"), v("B")))
	if q1.DedupKey() != q2.DedupKey() {
		t.Error("DedupKey must be invariant under atom reordering + renaming")
	}
}

func TestContainment(t *testing.T) {
	// q1: q(X) :- r(X,Y). q2: q(X) :- r(X,X). q2 ⊆ q1 but not conversely.
	q1 := cq(at("q", v("X")), at("r", v("X"), v("Y")))
	q2 := cq(at("q", v("X")), at("r", v("X"), v("X")))
	if !q2.ContainedIn(q1) {
		t.Error("r(X,X) ⊆ r(X,Y) expected")
	}
	if q1.ContainedIn(q2) {
		t.Error("r(X,Y) ⊄ r(X,X)")
	}
}

func TestContainmentWithConstants(t *testing.T) {
	qa := cq(at("q", v("X")), at("r", v("X"), c("a")))
	qv := cq(at("q", v("X")), at("r", v("X"), v("Y")))
	if !qa.ContainedIn(qv) {
		t.Error("r(X,a) ⊆ r(X,Y)")
	}
	if qv.ContainedIn(qa) {
		t.Error("r(X,Y) ⊄ r(X,a)")
	}
}

func TestContainmentRespectsHead(t *testing.T) {
	// Same body, different answer variable: not contained.
	q1 := cq(at("q", v("X")), at("r", v("X"), v("Y")))
	q2 := cq(at("q", v("Y")), at("r", v("X"), v("Y")))
	if q1.ContainedIn(q2) || q2.ContainedIn(q1) {
		t.Error("projection on different positions must not be contained")
	}
}

func TestContainmentDifferentPredicateOrArity(t *testing.T) {
	q1 := cq(at("q", v("X")), at("r", v("X")))
	q2 := cq(at("p", v("X")), at("r", v("X")))
	if q1.ContainedIn(q2) {
		t.Error("different head predicates are incomparable")
	}
	q3 := cq(at("q", v("X"), v("X")), at("r", v("X")))
	if q1.ContainedIn(q3) {
		t.Error("different arities are incomparable")
	}
}

func TestContainmentExtraAtomIsMoreSpecific(t *testing.T) {
	q1 := cq(at("q", v("X")), at("r", v("X"), v("Y")), at("s", v("Y")))
	q2 := cq(at("q", v("X")), at("r", v("X"), v("Y")))
	if !q1.ContainedIn(q2) {
		t.Error("adding atoms restricts: q1 ⊆ q2")
	}
	if q2.ContainedIn(q1) {
		t.Error("q2 ⊄ q1")
	}
}

func TestEquivalentAlphaRenaming(t *testing.T) {
	q1 := cq(at("q", v("X")), at("r", v("X"), v("Y")))
	q2 := cq(at("q", v("U")), at("r", v("U"), v("W")))
	if !q1.Equivalent(q2) {
		t.Error("alpha-equivalent CQs must be Equivalent")
	}
}

func TestMinimizeRemovesRedundantAtom(t *testing.T) {
	// q(X) :- r(X,Y), r(X,Z): the second atom is redundant.
	q := cq(at("q", v("X")), at("r", v("X"), v("Y")), at("r", v("X"), v("Z")))
	m := q.Minimize()
	if len(m.Body) != 1 {
		t.Errorf("Minimize left %d atoms, want 1: %v", len(m.Body), m)
	}
	if !m.Equivalent(q) {
		t.Error("Minimize must preserve equivalence")
	}
}

func TestMinimizeKeepsNeededAtoms(t *testing.T) {
	q := cq(at("q", v("X")), at("r", v("X"), v("Y")), at("s", v("Y")))
	m := q.Minimize()
	if len(m.Body) != 2 {
		t.Errorf("Minimize must keep both atoms, got %v", m)
	}
}

func TestMinimizeRepeatedVarCore(t *testing.T) {
	// q() :- e(X,Y), e(Y,X), e(Z,Z): hom Z<-..., actually e(X,Y),e(Y,X)
	// folds onto e(Z,Z) via X=Y=Z, so the core is e(Z,Z).
	q := cq(at("q"), at("e", v("X"), v("Y")), at("e", v("Y"), v("X")), at("e", v("Z"), v("Z")))
	m := q.Minimize()
	if len(m.Body) != 1 {
		t.Errorf("core should be a single atom, got %v", m)
	}
}

func TestUCQValidate(t *testing.T) {
	q1 := cq(at("q", v("X")), at("r", v("X")))
	q2 := cq(at("q", v("X"), v("Y")), at("r2", v("X"), v("Y")))
	if _, err := NewUCQ(q1, q2); err == nil {
		t.Error("arity mismatch must be rejected")
	}
	if _, err := NewUCQ(); err == nil {
		t.Error("empty UCQ must be rejected")
	}
}

func TestUCQPrune(t *testing.T) {
	gen := cq(at("q", v("X")), at("r", v("X"), v("Y")))
	spec := cq(at("q", v("X")), at("r", v("X"), v("X")))
	alpha := cq(at("q", v("A")), at("r", v("A"), v("B")))
	u := MustNewUCQ(gen, spec, alpha)
	p := u.Prune()
	if p.Len() != 1 {
		t.Fatalf("Prune left %d disjuncts, want 1: %v", p.Len(), p)
	}
	if !p.CQs[0].Equivalent(gen) {
		t.Error("the most general disjunct must survive")
	}
}

func TestUCQContainmentAndEquivalence(t *testing.T) {
	q1 := cq(at("q", v("X")), at("r", v("X"), v("X")))
	q2 := cq(at("q", v("X")), at("r", v("X"), v("Y")))
	small := MustNewUCQ(q1)
	big := MustNewUCQ(q1, q2)
	if !small.ContainedIn(big) {
		t.Error("small ⊆ big")
	}
	if big.ContainedIn(small) {
		t.Error("big ⊄ small")
	}
	if !big.Equivalent(MustNewUCQ(q2)) {
		t.Error("big is equivalent to just the general disjunct")
	}
}

func TestApplyDoesNotMutate(t *testing.T) {
	q := cq(at("q", v("X")), at("r", v("X"), v("Y")))
	s := logic.Subst{v("X"): c("a")}
	q2 := q.Apply(s)
	if q.Head.Args[0] != v("X") {
		t.Error("Apply must not mutate the receiver")
	}
	if q2.Head.Args[0] != c("a") {
		t.Error("Apply must substitute in the copy")
	}
}

func TestFreezeProducesGroundBody(t *testing.T) {
	q := cq(at("q", v("X")), at("r", v("X"), v("Y")), at("s", v("Y"), c("k")))
	frozen := q.Freeze()
	head, body := frozen.Head, frozen.Body
	for _, a := range body {
		if !a.IsGround() {
			t.Errorf("frozen body atom %v not ground", a)
		}
	}
	if head.Args[0].IsVar() {
		t.Error("frozen head must be ground")
	}
	// Shared variable Y must freeze to the same constant in both atoms.
	if body[0].Args[1] != body[1].Args[0] {
		t.Error("shared variable must freeze consistently")
	}
	if body[1].Args[1] != c("k") {
		t.Error("constants must be preserved by Freeze")
	}
}

func TestStringRendering(t *testing.T) {
	q := cq(at("q", v("X")), at("r", v("X"), c("a")))
	if got := q.String(); got != "q(X) :- r(X, a) ." {
		t.Errorf("String = %q", got)
	}
	u := MustNewUCQ(q, q)
	if got := u.String(); got != "q(X) :- r(X, a) .\nq(X) :- r(X, a) ." {
		t.Errorf("UCQ String = %q", got)
	}
}

func TestCanonicalStableOnCanonicalInput(t *testing.T) {
	// Regression: inputs already using Vn names must canonicalize correctly
	// (a naive rename desynchronizes on V1->V1 no-ops and Walk chains).
	q := cq(at("q"), at("r", v("V1"), v("rw#9")), at("t", v("V1"), c("a")))
	got := q.Canonical()
	want := cq(at("q"), at("r", v("V1"), v("V2")), at("t", v("V1"), c("a")))
	if got.Key() != want.Key() {
		t.Errorf("Canonical = %v, want %v", got, want)
	}
	// Idempotence: canonicalizing twice is a fixpoint.
	if got.Canonical().Key() != got.Key() {
		t.Errorf("Canonical not idempotent: %v vs %v", got.Canonical(), got)
	}
}

func TestCanonicalSwappedVnNames(t *testing.T) {
	// V2 occurs before V1 in the input: renaming must swap them safely.
	q := cq(at("q", v("V2"), v("V1")), at("r", v("V2"), v("V1")))
	got := q.Canonical()
	want := cq(at("q", v("V1"), v("V2")), at("r", v("V1"), v("V2")))
	if got.Key() != want.Key() {
		t.Errorf("Canonical = %v, want %v", got, want)
	}
}

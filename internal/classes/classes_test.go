package classes

import (
	"strings"
	"testing"

	"repro/internal/dependency"
	"repro/internal/parser"
)

func rules(src string) *dependency.Set { return parser.MustParseRules(src) }

// example3 is the paper's Example 3: the paper states it is not Linear, not
// Multilinear, not Sticky, not Sticky-Join (and not SWR), yet FO-rewritable.
func example3() *dependency.Set {
	return rules(`
r(Y1,Y2) -> t(Y3,Y1,Y1) .
s(Y1,Y2,Y3) -> r(Y1,Y2) .
u(Y1), t(Y1,Y1,Y2) -> s(Y1,Y1,Y2) .
`)
}

func TestPaperExample3NotLinear(t *testing.T) {
	v := Linear(example3())
	if v.Member {
		t.Fatal("Example 3 is not linear (body(R3) has two atoms)")
	}
	if !strings.Contains(v.Reason, "R3") {
		t.Errorf("reason should cite R3: %s", v.Reason)
	}
}

func TestPaperExample3NotMultilinear(t *testing.T) {
	// Paper: "u(y1) in R3 does not contain the variable y2".
	v := Multilinear(example3())
	if v.Member {
		t.Fatal("Example 3 is not multilinear")
	}
	if !strings.Contains(v.Reason, "u(Y1)") || !strings.Contains(v.Reason, "Y2") {
		t.Errorf("reason should cite u(Y1) missing Y2: %s", v.Reason)
	}
}

func TestPaperExample3NotSticky(t *testing.T) {
	// Paper: "y1 appears twice in the atom t(y1,y1,y2) of R3".
	v := Sticky(example3())
	if v.Member {
		t.Fatal("Example 3 is not sticky")
	}
	if !strings.Contains(v.Reason, "Y1") || !strings.Contains(v.Reason, "R3") {
		t.Errorf("reason should cite Y1 in R3: %s", v.Reason)
	}
}

func TestPaperExample3NotStickyJoin(t *testing.T) {
	// Paper: "y1 appears in two different atoms of body(R3)".
	v := StickyJoin(example3())
	if v.Member {
		t.Fatal("Example 3 is not sticky-join")
	}
	if !strings.Contains(v.Reason, "Y1") || !strings.Contains(v.Reason, "2 body atoms") {
		t.Errorf("reason should cite Y1 in two atoms: %s", v.Reason)
	}
}

func TestPaperExample3NotSWRButWR(t *testing.T) {
	set := example3()
	if SWR(set).Member {
		t.Error("Example 3 is not SWR (not simple: repeated variables)")
	}
	if !WR(set).Member {
		t.Error("Example 3 must be WR")
	}
	by := Certificates(Survey(set))
	if len(by) == 0 {
		t.Fatal("Example 3 must be certified FO-rewritable")
	}
	// Of the four classes the paper names, none applies; WR does (and the
	// rule set also happens to have an acyclic GRD, which the paper does
	// not dispute).
	hasWR := false
	for _, c := range by {
		if c == "wr" {
			hasWR = true
		}
		if c == "linear" || c == "multilinear" || c == "sticky" || c == "sticky-join" || c == "swr" {
			t.Errorf("Example 3 wrongly certified by %s", c)
		}
	}
	if !hasWR {
		t.Errorf("Example 3 must be certified by WR, got %v", by)
	}
}

func TestLinearPositive(t *testing.T) {
	v := Linear(rules(`a(X,Y) -> b(Y) . b(X) -> c(X,Y) .`))
	if !v.Member {
		t.Errorf("single-body-atom rules are linear: %s", v.Reason)
	}
}

func TestMultilinearPositive(t *testing.T) {
	v := Multilinear(rules(`p(X,Y), q(X,Y) -> r(X,Y) .`))
	if !v.Member {
		t.Errorf("all distinguished vars in all atoms: %s", v.Reason)
	}
}

func TestStickyMarkingPropagation(t *testing.T) {
	// r(X,Y) -> p(X): Y marked initially. p's position 1 gets X of rule 2's
	// head... build a chain where propagation marks a head variable.
	set := rules(`
r(X,Y) -> p(Y) .
s(X,Z) -> r(X,Z) .
`)
	marked := StickyMarking(set)
	// Rule 1: X not in head -> marked.
	if !marked[0][vterm("X")] {
		t.Error("X must be initially marked in R1")
	}
	// Rule 2: head r(X,Z); position r[1] carries marked X in R1's body ->
	// X marked in R2's body.
	if !marked[1][vterm("X")] {
		t.Error("X must be propagation-marked in R2")
	}
	if marked[1][vterm("Z")] {
		// Z flows to r[2] -> p(Y) head... r[2] holds Z in R2's head; is
		// r[2] marked? R1 body r(X,Y): Y at r[2] and Y IS in head p(Y):
		// not initially marked. So Z must be unmarked.
		t.Error("Z must not be marked in R2")
	}
}

func TestStickyJoinAllowsRepeatsWithinAtom(t *testing.T) {
	// Marked variable repeated inside ONE atom: sticky fails, sticky-join
	// holds.
	set := rules(`p(X,X,Y) -> q(Y) .`)
	if Sticky(set).Member {
		t.Error("marked X repeated in one atom violates sticky")
	}
	if !StickyJoin(set).Member {
		t.Errorf("sticky-join allows within-atom repeats: %s", StickyJoin(set).Reason)
	}
}

func TestStickyPositive(t *testing.T) {
	// Joins only on head-preserved (unmarked) variables.
	set := rules(`p(X,Y), q(Y,Z) -> r(X,Y,Z) .`)
	if v := Sticky(set); !v.Member {
		t.Errorf("unmarked join must be sticky: %s", v.Reason)
	}
}

func TestGuarded(t *testing.T) {
	if v := Guarded(rules(`p(X,Y,Z), q(X,Y) -> r(X) .`)); !v.Member {
		t.Errorf("p guards all body vars: %s", v.Reason)
	}
	if Guarded(rules(`p(X,Y), q(Y,Z) -> r(X) .`)).Member {
		t.Error("no atom contains X,Y,Z together")
	}
}

func TestDomainRestricted(t *testing.T) {
	// Head contains none of the body variables: fine.
	if v := DomainRestricted(rules(`p(X,Y) -> q(Z,W) .`)); !v.Member {
		t.Errorf("none-of-body-vars head is domain-restricted: %s", v.Reason)
	}
	// Head contains all body variables: fine.
	if v := DomainRestricted(rules(`p(X,Y) -> q(X,Y,Z) .`)); !v.Member {
		t.Errorf("all-of-body-vars head is domain-restricted: %s", v.Reason)
	}
	// Head contains a strict non-empty subset: violation.
	if DomainRestricted(rules(`p(X,Y) -> q(X) .`)).Member {
		t.Error("partial head must violate domain-restriction")
	}
}

func TestWeaklyAcyclic(t *testing.T) {
	// No existentials: trivially weakly acyclic.
	if v := WeaklyAcyclic(rules(`e(X,Y), e(Y,Z) -> e(X,Z) .`)); !v.Member {
		t.Errorf("full TGDs are weakly acyclic: %s", v.Reason)
	}
	// Existential feeding its own position: the classic violation.
	if WeaklyAcyclic(rules(`p(X) -> q(X,Y) . q(X,Y) -> p(Y) .`)).Member {
		t.Error("null-generating loop must violate weak acyclicity")
	}
	// Paper Example 2 is weakly acyclic (its chase terminates) even though
	// it is not FO-rewritable.
	ex2 := rules(`
t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .
s(Y1,Y1,Y2) -> r(Y2,Y3) .
`)
	if v := WeaklyAcyclic(ex2); !v.Member {
		t.Errorf("Example 2 is weakly acyclic: %s", v.Reason)
	}
}

func TestAcyclicGRD(t *testing.T) {
	if v := AcyclicGRD(rules(`a(X) -> b(X) . b(X) -> c(X) .`)); !v.Member {
		t.Errorf("chain is GRD-acyclic: %s", v.Reason)
	}
	v := AcyclicGRD(rules(`a(X) -> b(X) . b(X) -> a(X) .`))
	if v.Member {
		t.Error("mutual recursion must be a GRD cycle")
	}
	if !strings.Contains(v.Reason, "R1") || !strings.Contains(v.Reason, "R2") {
		t.Errorf("cycle reason should name R1 and R2: %s", v.Reason)
	}
}

func TestSimpleVerdict(t *testing.T) {
	if v := Simple(rules(`p(X,Y) -> q(Y,X) .`)); !v.Member {
		t.Errorf("plain rule is simple: %s", v.Reason)
	}
	if Simple(rules(`p(X,X) -> q(X) .`)).Member {
		t.Error("repeated variable violates simplicity")
	}
}

func TestSurveyShape(t *testing.T) {
	got := Survey(example3())
	if len(got) != 11 {
		t.Fatalf("Survey returned %d verdicts, want 11", len(got))
	}
	names := map[string]bool{}
	for _, v := range got {
		names[v.Class] = true
	}
	for _, want := range []string{"simple", "linear", "multilinear", "sticky",
		"sticky-join", "guarded", "domain-restricted", "weakly-acyclic",
		"acyclic-grd", "swr", "wr"} {
		if !names[want] {
			t.Errorf("Survey missing class %s", want)
		}
	}
}

func TestVerdictString(t *testing.T) {
	if got := (Verdict{Class: "linear", Member: true}).String(); got != "linear: yes" {
		t.Errorf("String = %q", got)
	}
	if got := (Verdict{"linear", false, "why"}).String(); got != "linear: no (why)" {
		t.Errorf("String = %q", got)
	}
}

func TestFORewritableExample2(t *testing.T) {
	// Example 2 must not be certified by any implemented condition
	// (it genuinely is not FO-rewritable).
	ex2 := rules(`
t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .
s(Y1,Y1,Y2) -> r(Y2,Y3) .
`)
	if by := Certificates(Survey(ex2)); len(by) > 0 {
		t.Errorf("Example 2 wrongly certified FO-rewritable by %v", by)
	}
}

func TestCertificatesKeepSurveyOrder(t *testing.T) {
	got := Certificates([]Verdict{
		{Class: "simple", Member: true},
		{Class: "linear", Member: true},
		{Class: "sticky", Member: false},
		{Class: "guarded", Member: true},
		{Class: "weakly-acyclic", Member: true},
		{Class: "acyclic-grd", Member: true},
		{Class: "wr", Member: true},
	})
	if strings.Join(got, ",") != "linear,acyclic-grd,wr" {
		t.Errorf("Certificates = %v, want [linear acyclic-grd wr]", got)
	}
	if got := Certificates([]Verdict{{Class: "guarded", Member: true}}); got != nil {
		t.Errorf("no certifying member: Certificates = %v, want nil", got)
	}
}

// TestSWRReasonIsDeterministic: the set's position graph has one dangerous
// component with several m- and s-edges, so the reason names whichever
// witnesses DangerousCycles picks; it must pick the same ones every time.
func TestSWRReasonIsDeterministic(t *testing.T) {
	set := rules(`
r(X,Y), s(Y,W) -> r(X,Z) .
r(X,Y) -> s(Y,Z) .
t(X,Y), r(Y,W) -> t(X,Z) .
`)
	reasons := make(map[string]bool)
	for i := 0; i < 50; i++ {
		for _, v := range Survey(set) {
			if v.Class == "swr" {
				reasons[v.Reason] = true
			}
		}
	}
	if len(reasons) != 1 {
		t.Errorf("50 surveys gave %d distinct SWR reasons: %v", len(reasons), reasons)
	}
}

package core

import (
	"testing"

	"repro/internal/classes"
	"repro/internal/parser"
	"repro/internal/pnode"
)

// wrBudget is the reason the WR verdict gives when the P-node graph hit its
// node budget: membership unknown, not refuted.
const wrBudget = "node budget exhausted (membership unknown)"

// verdict returns the report's verdict for the named class.
func verdict(rep *Report, class string) classes.Verdict {
	for _, v := range rep.Verdicts {
		if v.Class == class {
			return v
		}
	}
	return classes.Verdict{Class: class}
}

// FuzzClassify feeds arbitrary program text through the parser into
// Classify — the path every rule set takes from Parse, AddRuleCtx and the
// server to the ModeAuto strategy choice. Classification must not panic and
// the report must agree with itself: FO-rewritable exactly when some class
// certifies it, every certificate a member verdict, SWR only on simple sets,
// and the strategy the one the two flags name. It must also respect the
// paper's inclusions: SWR ⇒ WR (unless WR ran out of nodes), and on simple
// sets Linear, Multilinear, Sticky and Sticky-Join ⇒ SWR. A WR verdict
// reached over an incomplete P-node graph must say so rather than report a
// cycle. Sets over six rules are skipped to keep most P-node graphs inside
// their node budget.
func FuzzClassify(f *testing.F) {
	for _, seed := range []string{
		"s(Y1,Y2,Y3), t(Y4) -> r(Y1,Y3) .\nv(Y1,Y2), q(Y2) -> s(Y1,Y3,Y2) .\nr(Y1,Y2) -> v(Y1,Y2) .",
		"t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .\ns(Y1,Y1,Y2) -> r(Y2,Y3) .",
		"r(Y1,Y2) -> t(Y3,Y1,Y1) .\ns(Y1,Y2,Y3) -> r(Y1,Y2) .\nu(Y1), t(Y1,Y1,Y2) -> s(Y1,Y1,Y2) .",
		"p(X) -> q(X,Y) .\nq(X,Y) -> p(Y) .\nq(X,Y), q(Y,Z) -> q(X,Z) .",
		"r(X,Y), s(Y,W) -> r(X,Z) .\nr(X,Y) -> s(Y,Z) .\nt(X,Y), r(Y,W) -> t(X,Z) .",
		`p(X, "admin") -> q(X) . q(X) -> r(X, "admin") .`,
		`department(X) -> subOrganizationOf(X, U), university(U) .`,
		`p(X) -> p(X) . p(X, Y) -> p(X) .`,
		`student(alice) .`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		set, err := prog.RuleSet()
		if err != nil || set.Len() > 6 {
			return
		}
		rep := Classify(set)
		if rep.FORewritable != (len(rep.CertifiedBy) > 0) {
			t.Fatalf("%q: FORewritable=%v with certificates %v", src, rep.FORewritable, rep.CertifiedBy)
		}
		for _, c := range rep.CertifiedBy {
			if !rep.Is(c) {
				t.Fatalf("%q: certified by %s, which is not a member verdict", src, c)
			}
		}
		if rep.ChaseTerminates != rep.Is("weakly-acyclic") {
			t.Fatalf("%q: ChaseTerminates=%v disagrees with the weak-acyclicity verdict", src, rep.ChaseTerminates)
		}
		if rep.Is("swr") && !set.IsSimple() {
			t.Fatalf("%q: SWR on a set that is not simple", src)
		}
		wr := verdict(rep, "wr")
		if rep.Is("swr") && !wr.Member && wr.Reason != wrBudget {
			t.Fatalf("%q: SWR but not WR (%s)", src, wr.Reason)
		}
		if set.IsSimple() && !rep.Is("swr") {
			for _, c := range []string{"linear", "multilinear", "sticky", "sticky-join"} {
				if rep.Is(c) {
					t.Fatalf("%q: simple and %s but not SWR (%s)", src, c, verdict(rep, "swr").Reason)
				}
			}
		}
		if !pnode.Check(set).Complete && (wr.Member || wr.Reason != wrBudget) {
			t.Fatalf("%q: P-node graph over budget, yet WR verdict %v", src, wr)
		}
		want := "bounded"
		switch {
		case rep.FORewritable:
			want = "rewrite"
		case rep.ChaseTerminates:
			want = "chase"
		}
		if got := rep.Strategy(); got != want {
			t.Fatalf("%q: strategy %s, want %s (FORewritable=%v, ChaseTerminates=%v)",
				src, got, want, rep.FORewritable, rep.ChaseTerminates)
		}
	})
}

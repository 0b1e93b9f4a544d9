package core

import (
	"testing"

	"repro/internal/parser"
)

// FuzzClassify feeds arbitrary program text through the parser into
// Classify — the path every rule set takes from Parse, AddRule and the
// server to the ModeAuto strategy choice. Classification must not panic and
// the report must agree with itself: FO-rewritable exactly when some class
// certifies it, every certificate a member verdict, SWR only on simple sets,
// and the strategy the one the two flags name. Sets over six rules are
// skipped to keep every P-node graph inside its node budget.
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

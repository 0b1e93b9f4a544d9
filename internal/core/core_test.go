package core

import (
	"strings"
	"testing"

	"repro/internal/parser"
)

func TestClassifyExample1(t *testing.T) {
	rep := Classify(parser.MustParseRules(`
s(Y1,Y2,Y3), t(Y4) -> r(Y1,Y3) .
v(Y1,Y2), q(Y2) -> s(Y1,Y3,Y2) .
r(Y1,Y2) -> v(Y1,Y2) .
`))
	if !rep.Is("swr") || !rep.Is("wr") || !rep.Is("simple") {
		t.Error("Example 1 must be simple, SWR and WR")
	}
	if !rep.FORewritable {
		t.Error("Example 1 is FO-rewritable")
	}
	if rep.Strategy() != "rewrite" {
		t.Errorf("Strategy = %q, want rewrite", rep.Strategy())
	}
}

func TestClassifyExample2(t *testing.T) {
	rep := Classify(parser.MustParseRules(`
t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .
s(Y1,Y1,Y2) -> r(Y2,Y3) .
`))
	if rep.FORewritable {
		t.Errorf("Example 2 must not be certified FO-rewritable: %v", rep.CertifiedBy)
	}
	if !rep.ChaseTerminates {
		t.Error("Example 2 is weakly acyclic; chase terminates")
	}
	if rep.Strategy() != "chase" {
		t.Errorf("Strategy = %q, want chase", rep.Strategy())
	}
}

func TestClassifyExample3(t *testing.T) {
	rep := Classify(parser.MustParseRules(`
r(Y1,Y2) -> t(Y3,Y1,Y1) .
s(Y1,Y2,Y3) -> r(Y1,Y2) .
u(Y1), t(Y1,Y1,Y2) -> s(Y1,Y1,Y2) .
`))
	if !rep.Is("wr") {
		t.Error("Example 3 must be WR")
	}
	for _, c := range []string{"linear", "multilinear", "sticky", "sticky-join", "swr", "simple"} {
		if rep.Is(c) {
			t.Errorf("Example 3 must not be %s", c)
		}
	}
	if !rep.FORewritable || rep.Strategy() != "rewrite" {
		t.Error("Example 3 must be certified FO-rewritable via WR")
	}
}

func TestStrategyBounded(t *testing.T) {
	// Neither FO-rewritable nor weakly acyclic: the ancestor loop with
	// value invention.
	rep := Classify(parser.MustParseRules(`
p(X) -> q(X,Y) .
q(X,Y) -> p(Y) .
q(X,Y), q(Y,Z) -> q(X,Z) .
`))
	if rep.FORewritable {
		t.Skip("certified rewritable; strategy test not applicable")
	}
	if rep.ChaseTerminates {
		t.Fatal("null-feeding loop must not be weakly acyclic")
	}
	if rep.Strategy() != "bounded" {
		t.Errorf("Strategy = %q, want bounded", rep.Strategy())
	}
}

func TestReportString(t *testing.T) {
	rep := Classify(parser.MustParseRules(`a(X) -> b(X) .`))
	s := rep.String()
	for _, want := range []string{"linear", "YES", "FO-rewritable: yes", "recommended strategy: rewrite"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestIsUnknownClass(t *testing.T) {
	rep := Classify(parser.MustParseRules(`a(X) -> b(X) .`))
	if rep.Is("no-such-class") {
		t.Error("unknown class must report false")
	}
}

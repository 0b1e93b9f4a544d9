package grd

import (
	"strings"
	"testing"

	"repro/internal/parser"
)

// dependsOn reports whether rule j depends on rule i in g.
func dependsOn(g *Graph, i, j int) bool {
	for _, k := range g.DependsOn(i) {
		if k == j {
			return true
		}
	}
	return false
}

func TestDependsBasic(t *testing.T) {
	set := parser.MustParseRules(`
a(X) -> b(X) .
b(X) -> c(X) .
`)
	g := Build(set)
	if !dependsOn(g, 0, 1) {
		t.Error("R2 depends on R1 (b feeds b)")
	}
	if dependsOn(g, 1, 0) {
		t.Error("R1 does not depend on R2 (a is not produced)")
	}
}

func TestDependsBlockedByConstant(t *testing.T) {
	// R1 invents a null at q[2]; R2 demands the constant k there: a null
	// can never equal a constant, so R2 does not depend on R1.
	set := parser.MustParseRules(`
p(X) -> q(X,Y) .
q(X, "k") -> r(X) .
`)
	if dependsOn(Build(set), 0, 1) {
		t.Error("constant demand on an existential position is not a trigger")
	}
}

func TestDependsBlockedByRepeatedExistential(t *testing.T) {
	// R1 invents distinct nulls Y,Z; R2 demands q(W,W): nulls are never
	// equal to the frontier value, so no dependency.
	set := parser.MustParseRules(`
p(X) -> q(X,Y) .
q(W,W) -> r(W) .
`)
	if dependsOn(Build(set), 0, 1) {
		t.Error("q(W,W) cannot be triggered by q(frontier, null)")
	}
}

func TestAcyclicAndCycle(t *testing.T) {
	chain := Build(parser.MustParseRules(`a(X) -> b(X) . b(X) -> c(X) .`))
	if !chain.Acyclic() {
		t.Error("chain must be acyclic")
	}
	if len(chain.Cycle()) != 0 {
		t.Error("acyclic graph must have no cycle witness")
	}
	loop := Build(parser.MustParseRules(`a(X) -> b(X) . b(X) -> a(X) .`))
	if loop.Acyclic() {
		t.Error("mutual recursion must be cyclic")
	}
	cyc := loop.Cycle()
	if len(cyc) != 2 {
		t.Errorf("cycle = %v, want 2 rules", cyc)
	}
}

func TestSelfLoop(t *testing.T) {
	g := Build(parser.MustParseRules(`e(X,Y), e(Y,Z) -> e(X,Z) .`))
	if g.Acyclic() {
		t.Error("transitive closure rule depends on itself")
	}
	if got := g.Cycle(); len(got) != 1 || got[0] != "R1" {
		t.Errorf("self-loop cycle = %v", got)
	}
}

func TestGraphString(t *testing.T) {
	g := Build(parser.MustParseRules(`a(X) -> b(X) . b(X) -> c(X) .`))
	if got := g.String(); !strings.Contains(got, "R1 -> R2") {
		t.Errorf("String = %q", got)
	}
}

func TestDependsOn(t *testing.T) {
	g := Build(parser.MustParseRules(`a(X) -> b(X) . b(X) -> c(X) . b(X) -> d(X) .`))
	deps := g.DependsOn(0)
	if len(deps) != 2 || deps[0] != 1 || deps[1] != 2 {
		t.Errorf("DependsOn(0) = %v, want [1 2]", deps)
	}
}

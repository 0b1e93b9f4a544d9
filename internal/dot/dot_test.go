package dot

import (
	"strings"
	"testing"

	"repro/internal/grd"
	"repro/internal/parser"
	"repro/internal/pnode"
	"repro/internal/posgraph"
)

func TestPositionGraphDOT(t *testing.T) {
	set := parser.MustParseRules(`
s(Y1,Y2,Y3), t(Y4) -> r(Y1,Y3) .
v(Y1,Y2), q(Y2) -> s(Y1,Y3,Y2) .
r(Y1,Y2) -> v(Y1,Y2) .
`)
	out := PositionGraph(posgraph.Build(set), "figure1")
	for _, want := range []string{"digraph", "r[ ]", "s[2]", "->", `label="m"`, "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
}

func TestPositionGraphDangerousEdgeStyling(t *testing.T) {
	set := parser.MustParseRules(`p(X,Y), p(Y,Z) -> p(X,W) .`)
	out := PositionGraph(posgraph.Build(set), "danger")
	if !strings.Contains(out, "color=red") {
		t.Errorf("m+s edges must be highlighted:\n%s", out)
	}
}

func TestPNodeGraphDOT(t *testing.T) {
	set := parser.MustParseRules(`
t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .
s(Y1,Y1,Y2) -> r(Y2,Y3) .
`)
	out := PNodeGraph(pnode.Build(set), "figure3")
	for _, want := range []string{"digraph", "s(z1, z1, x1)", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
}

func TestRuleDependenciesDOT(t *testing.T) {
	set := parser.MustParseRules(`a(X) -> b(X) . b(X) -> c(X) .`)
	g := grd.Build(set)
	out := RuleDependencies(g, []string{"R1", "R2"}, "grd")
	for _, want := range []string{"digraph", `n0 [label="R1"]`, "n0 -> n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
}

func TestEmptyTitle(t *testing.T) {
	set := parser.MustParseRules(`a(X) -> b(X) .`)
	out := PositionGraph(posgraph.Build(set), "")
	if !strings.HasPrefix(out, "digraph \"g\"") {
		t.Errorf("empty title must default:\n%s", out)
	}
}

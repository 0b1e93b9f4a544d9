package pnode

import (
	"fmt"
	"testing"

	"repro/internal/parser"
	"repro/internal/posgraph"
)

// example2 is the paper's Example 2 / Figure 3 rule set (not simple; the
// position graph cannot classify it, the P-node graph must).
func example2() string {
	return `
t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .
s(Y1,Y1,Y2) -> r(Y2,Y3) .
`
}

// example3 is the paper's Example 3: in no previously known class, yet
// FO-rewritable; WR must accept it.
func example3() string {
	return `
r(Y1,Y2) -> t(Y3,Y1,Y1) .
s(Y1,Y2,Y3) -> r(Y1,Y2) .
u(Y1), t(Y1,Y1,Y2) -> s(Y1,Y1,Y2) .
`
}

func TestPaperExample2NotWR(t *testing.T) {
	res := Check(parser.MustParseRules(example2()))
	if !res.Complete {
		t.Fatal("Example 2's P-node graph must fit the budget")
	}
	if res.WR {
		t.Fatal("Example 2 must NOT be WR (unbounded chain, paper §6)")
	}
	if len(res.Violations) == 0 {
		t.Fatal("expected a dangerous d+m+s cycle witness")
	}
	w := res.Violations[0]
	if !w.DEdge.Label.Has(D) || !w.MEdge.Label.Has(M) || !w.SEdge.Label.Has(S) {
		t.Errorf("witness labels wrong: d=%v m=%v s=%v",
			w.DEdge.Label, w.MEdge.Label, w.SEdge.Label)
	}
}

func TestPaperExample2Figure3Nodes(t *testing.T) {
	g := Build(parser.MustParseRules(example2()))
	// Figure 3's visible P-atoms (modulo our two-sorted renaming):
	// the generic head nodes r(x1,x2) and s(x1,x2,x3), the traced node
	// s(z,z,x1) — ours is s(z1,z1,x1) — and the generic body nodes
	// t(x1,x2) and s(x1,x1,x2)... the last arises in the paper's single-z
	// canonicalization; in ours the generic body node is fully generic
	// s(x1,x2,x3) (already present). Assert what both readings share.
	for _, sigma := range []string{"r(x1, x2)", "s(x1, x2, x3)", "t(x1, x2)", "s(z1, z1, x1)"} {
		if g.FindNode(sigma) == nil {
			t.Errorf("missing Figure 3 node with sigma %s", sigma)
		}
	}
}

func TestPaperExample2DangerousEdgeLabels(t *testing.T) {
	// The R1 step out of the traced node s(z1,z1,x1) loses the bound x1
	// (d), misses distinguished variables in the r body atom (m), and
	// splits the traced existential across t and r (s) — all on one edge.
	g := Build(parser.MustParseRules(example2()))
	sNode := g.FindNode("s(z1, z1, x1)")
	if sNode == nil {
		t.Fatal("missing traced s node")
	}
	found := false
	for _, e := range g.Edges() {
		if e.From == sNode && e.Label.Has(D|M|S) && !e.Label.Has(I) {
			found = true
		}
	}
	if !found {
		t.Errorf("no d+m+s edge out of %v; edges: %v", sNode, g.Edges())
	}
	// The all-unbound node s(z1,z1,z2) sits on the same dangerous cycle.
	if g.FindNode("s(z1, z1, z2)") == nil {
		t.Error("missing all-unbound s node on the dangerous cycle")
	}
}

func TestPaperExample3IsWR(t *testing.T) {
	res := Check(parser.MustParseRules(example3()))
	if !res.Complete {
		t.Fatal("Example 3's P-node graph must fit the budget")
	}
	if !res.WR {
		t.Fatalf("Example 3 must be WR; violations: %v", res.Violations)
	}
}

func TestExample3RecursionBlockedByContext(t *testing.T) {
	// The t-node produced by R3 carries the context {u(x1), t(x1,x1,z1)};
	// unifying it with R1's head t(Y3,Y1,Y1) must fail (the existential Y3
	// would merge with the distinguished Y1), so the node has no outgoing
	// edges via R1 — the paper's "recursion is only apparent".
	g := Build(parser.MustParseRules(example3()))
	tNode := g.FindNode("t(x1, x1, z1)")
	if tNode == nil {
		t.Fatal("missing context-constrained t node")
	}
	for _, e := range g.Edges() {
		if e.From == tNode {
			t.Errorf("t node must be a dead end, found edge to %v", e.To)
		}
	}
}

func TestWRAcceptsLinear(t *testing.T) {
	res := Check(parser.MustParseRules(`
a(X,Y) -> b(Y,X) .
b(X,Y) -> c(X) .
c(X) -> a(X,Y) .
`))
	if !res.WR {
		t.Errorf("linear recursive set must be WR: %v", res.Violations)
	}
}

func TestWRAcceptsHierarchy(t *testing.T) {
	res := Check(parser.MustParseRules(`
student(X) -> person(X) .
person(X) -> agent(X) .
agent(X) -> thing(X) .
`))
	if !res.WR {
		t.Errorf("hierarchy must be WR: %v", res.Violations)
	}
}

func TestWRAcceptsMultilinearSplit(t *testing.T) {
	// s-only cycles are harmless (mirrors the SWR test).
	res := Check(parser.MustParseRules(`p(X,Y), q(X,Y) -> p(X,W) .`))
	if !res.WR {
		t.Errorf("multilinear split-only set must be WR: %v", res.Violations)
	}
}

func TestWRRejectsSWRDangerousSet(t *testing.T) {
	// The SWR-dangerous self-loop (m and s on a cycle) also diverges for
	// WR: p(X,Y), p(Y,Z) -> p(X,W).
	set := parser.MustParseRules(`p(X,Y), p(Y,Z) -> p(X,W) .`)
	swr := posgraph.Check(set)
	if swr.SWR {
		t.Fatal("precondition: set must not be SWR")
	}
	res := Check(set)
	if res.WR {
		t.Error("set rejected by SWR with a genuine unbounded chain must not be WR")
	}
}

func TestWRSubsumesSWROnPaperSets(t *testing.T) {
	// Every simple set accepted by SWR must be accepted by WR
	// (the paper's conjecture (i)+(iii) direction we can check).
	for _, src := range []string{
		`s(Y1,Y2,Y3), t(Y4) -> r(Y1,Y3) .
		 v(Y1,Y2), q(Y2) -> s(Y1,Y3,Y2) .
		 r(Y1,Y2) -> v(Y1,Y2) .`,
		`a(X,Y) -> b(Y,X) . b(X,Y) -> c(X) . c(X) -> a(X,Y) .`,
		`p(X,Y), q(X,Y) -> p(X,W) .`,
		`student(X) -> person(X) . person(X) -> agent(X) .`,
		`e(X,Y) -> e2(X,Y) . e2(X,Y), f(X,Y) -> g(X,Y) .`,
	} {
		set := parser.MustParseRules(src)
		if !posgraph.Check(set).SWR {
			t.Errorf("precondition failed: expected SWR for %q", src)
			continue
		}
		res := Check(set)
		if !res.WR {
			t.Errorf("WR must subsume SWR; rejected %q: %v", src, res.Violations)
		}
	}
}

func TestWRConstantsHandled(t *testing.T) {
	// Constants in rules (outside the simple fragment) are carried into
	// P-atoms; a harmless constant-guarded chain stays WR.
	res := Check(parser.MustParseRules(`
p(X, "admin") -> q(X) .
q(X) -> r(X, "admin") .
`))
	if !res.WR {
		t.Errorf("constant-guarded chain must be WR: %v", res.Violations)
	}
}

func TestNodeBudgetReportsIncomplete(t *testing.T) {
	defer func(saved int) { maxNodes = saved }(maxNodes)
	maxNodes = 3
	res := Check(parser.MustParseRules(example2()))
	if res.Complete {
		t.Error("3-node budget must be insufficient")
	}
	if res.WR {
		t.Error("incomplete graphs must not be certified WR")
	}
}

func TestGraphDeterminism(t *testing.T) {
	a := Build(parser.MustParseRules(example3()))
	b := Build(parser.MustParseRules(example3()))
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) || a.NodeCount() != b.NodeCount() {
		t.Fatalf("graph shape must be deterministic: %d/%d nodes, %d/%d edges",
			a.NodeCount(), b.NodeCount(), len(ae), len(be))
	}
	for i := range ae {
		if ae[i].From.Key() != be[i].From.Key() || ae[i].To.Key() != be[i].To.Key() ||
			ae[i].Label != be[i].Label {
			t.Errorf("edge %d differs", i)
		}
	}
}

// TestWitnessEdgesAreDeterministic: the set's dangerous component holds
// several d-, m- and s-edges; every Check must name the same three.
func TestWitnessEdgesAreDeterministic(t *testing.T) {
	set := parser.MustParseRules(`
r(X,Y), s(Y,W) -> r(X,Z) .
r(X,Y) -> s(Y,Z) .
t(X,Y), r(Y,W) -> t(X,Z) .
`)
	witnesses := func() string {
		res := Check(set)
		if len(res.Violations) == 0 {
			t.Fatal("the set must have a dangerous component")
		}
		v := res.Violations[0]
		return fmt.Sprint(v.Nodes, v.DEdge.From, v.DEdge.To, v.MEdge.From, v.MEdge.To, v.SEdge.From, v.SEdge.To)
	}
	first := witnesses()
	for i := 0; i < 20; i++ {
		if got := witnesses(); got != first {
			t.Fatalf("witnesses changed between calls:\n%s\n%s", first, got)
		}
	}
}

func TestIsolatedAtomGetsILabel(t *testing.T) {
	// Example 1's R1 has the isolated body atom t(Y4).
	g := Build(parser.MustParseRules(`
s(Y1,Y2,Y3), t(Y4) -> r(Y1,Y3) .
`))
	foundI := false
	for _, e := range g.Edges() {
		if e.To.Sigma.Pred == "t" && e.Label.Has(I) {
			foundI = true
		}
		if e.To.Sigma.Pred == "s" && e.Label.Has(I) {
			t.Errorf("s atom is not isolated: %v", e)
		}
	}
	if !foundI {
		t.Error("edges to the isolated t atom must carry i")
	}
}

func TestLabelString(t *testing.T) {
	if got := (D | M | S).String(); got != "d,m,s" {
		t.Errorf("label string = %q", got)
	}
	if got := Label(0).String(); got != "" {
		t.Errorf("empty label = %q", got)
	}
	if got := (I).String(); got != "i" {
		t.Errorf("i label = %q", got)
	}
}

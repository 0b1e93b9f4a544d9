// Package posgraph implements the paper's position graph AG(P)
// (Definition 4) and the Simply Weakly Recursive (SWR) class test
// (Definition 5).
//
// Nodes are positions: either generic r[ ] ("some atom over r") or indexed
// r[i] ("an atom over r carrying a rewriting-introduced existential variable
// at position i"). An edge σ → σ′ abstracts one backward rewriting step
// transforming an atom matching σ into a body atom matching σ′. Edges carry
// labels from {m, s}:
//
//   - m ("missing"): some distinguished variable of the applied TGD does not
//     occur in the produced body atom — the rewriting loses a binding;
//   - s ("splitting"): an existential variable is spread over two or more
//     body atoms — the rewriting introduces a join on an unknown.
//
// A set of simple TGDs is SWR iff no cycle of AG(P) contains both an m-edge
// and an s-edge; SWR sets are FO-rewritable (paper Theorem 1).
//
// The construction follows Definition 4 literally for simple TGDs. For
// non-simple inputs (the paper's §6 motivating Example 2 applies the
// construction "nonetheless") Build degrades best-effort: every head atom is
// considered, repeated variables contribute every position they occupy, and
// constants occupy no position. The package reports such inputs via
// Graph.Exact so callers can tell a certified answer from a heuristic one.
package posgraph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dependency"
	"repro/internal/digraph"
	"repro/internal/logic"
)

// Label is a set of edge labels (bit set over m, s).
type Label uint8

// Edge labels of Definition 4.
const (
	// M marks edges where a distinguished variable goes missing.
	M Label = 1 << iota
	// S marks edges where an existential variable splits across atoms.
	S
)

// Has reports whether l contains all labels of want.
func (l Label) Has(want Label) bool { return l&want == want }

// String renders the label set like "m,s" ("" when empty).
func (l Label) String() string {
	var parts []string
	if l.Has(M) {
		parts = append(parts, "m")
	}
	if l.Has(S) {
		parts = append(parts, "s")
	}
	return strings.Join(parts, ",")
}

// Edge is a labelled edge of the position graph.
type Edge struct {
	From, To dependency.Position
	Label    Label
}

// Graph is a built position graph.
type Graph struct {
	// Exact reports whether the input was a set of simple TGDs, for which
	// Definition 4 applies literally. When false the graph is the
	// best-effort extension described in the package comment.
	Exact bool

	nodes  map[dependency.Position]int // node -> its index in order
	order  []dependency.Position
	labels map[[2]dependency.Position]Label // key: (from, to)
}

// Build constructs AG(P) for the rule set.
func Build(set *dependency.Set) *Graph {
	g := &Graph{
		Exact:  set.IsSimple(),
		nodes:  make(map[dependency.Position]int),
		labels: make(map[[2]dependency.Position]Label),
	}

	var work []dependency.Position
	push := func(p dependency.Position) {
		if _, ok := g.nodes[p]; !ok {
			g.nodes[p] = len(g.order)
			g.order = append(g.order, p)
			work = append(work, p)
		}
	}

	// Base case: a generic node for every head relation.
	for _, r := range set.Rules {
		for _, h := range r.Head {
			push(dependency.Position{Rel: h.Pred})
		}
	}

	processed := make(map[dependency.Position]bool)
	for len(work) > 0 {
		sigma := work[0]
		work = work[1:]
		if processed[sigma] {
			continue
		}
		processed[sigma] = true

		for _, rule := range set.Rules {
			for _, alpha := range rule.Head {
				if !compatible(sigma, alpha, rule) {
					continue
				}
				g.expand(sigma, alpha, rule, push)
			}
		}
	}
	return g
}

// compatible implements R-compatibility (Definition 3): a generic position
// r[ ] is compatible when Rel(α) = r; an indexed position r[i] additionally
// requires α[i] to be a distinguished variable of R.
func compatible(sigma dependency.Position, alpha logic.Atom, rule *dependency.TGD) bool {
	if alpha.Pred != sigma.Rel {
		return false
	}
	if sigma.Generic() {
		return true
	}
	if sigma.Idx > alpha.Arity() {
		return false
	}
	t := alpha.Args[sigma.Idx-1]
	return t.IsVar() && rule.IsDistinguished(t)
}

// expand adds the edges of one rule application per Definition 4.
func (g *Graph) expand(sigma dependency.Position, alpha logic.Atom, rule *dependency.TGD,
	push func(dependency.Position)) {

	distinguished := rule.Distinguished()
	existBody := rule.ExistentialBody()

	// Point 2: some existential body variable occurs in >= 2 body atoms.
	splitAll := false
	for _, z := range existBody {
		if countAtomsWith(rule.Body, z) >= 2 {
			splitAll = true
			break
		}
	}
	// Point 3: the traced variable at α[i] occurs in >= 2 body atoms.
	var traced logic.Term
	haveTraced := false
	if !sigma.Generic() {
		traced = alpha.Args[sigma.Idx-1]
		haveTraced = true
		if countAtomsWith(rule.Body, traced) >= 2 {
			splitAll = true
		}
	}

	for _, beta := range rule.Body {
		var added [][2]dependency.Position

		// (a) the generic node of the body relation.
		to := dependency.Position{Rel: beta.Pred}
		push(to)
		added = append(added, [2]dependency.Position{sigma, to})

		// (b) positions of existential body variables inside β.
		for _, z := range existBody {
			for _, p := range dependency.AllPosOf(z, beta) {
				push(p)
				added = append(added, [2]dependency.Position{sigma, p})
			}
		}

		// (c) positions of the traced distinguished variable inside β.
		if haveTraced {
			for _, p := range dependency.AllPosOf(traced, beta) {
				push(p)
				added = append(added, [2]dependency.Position{sigma, p})
			}
		}

		// (d) m-label when some distinguished variable misses β.
		missing := false
		for _, d := range distinguished {
			if !beta.HasVar(d) {
				missing = true
				break
			}
		}

		var label Label
		if missing {
			label |= M
		}
		if splitAll {
			label |= S
		}
		for _, e := range added {
			g.addEdge(e[0], e[1], label)
		}
	}
}

func countAtomsWith(atoms []logic.Atom, v logic.Term) int {
	n := 0
	for _, a := range atoms {
		if a.HasVar(v) {
			n++
		}
	}
	return n
}

func (g *Graph) addEdge(from, to dependency.Position, label Label) {
	g.labels[[2]dependency.Position{from, to}] |= label
}

// Nodes returns the graph's nodes in deterministic order (insertion order of
// the worklist construction).
func (g *Graph) Nodes() []dependency.Position {
	out := make([]dependency.Position, len(g.order))
	copy(out, g.order)
	return out
}

// HasNode reports whether p is a node of the graph.
func (g *Graph) HasNode(p dependency.Position) bool {
	_, ok := g.nodes[p]
	return ok
}

// Edges returns all edges sorted by the rendered (from, to) positions.
func (g *Graph) Edges() []Edge {
	name := make([]string, len(g.order))
	for i, p := range g.order {
		name[i] = p.String()
	}
	out := make([]Edge, 0, len(g.labels))
	for k, l := range g.labels {
		out = append(out, Edge{From: k[0], To: k[1], Label: l})
	}
	sort.Slice(out, func(i, j int) bool {
		fi, fj := name[g.nodes[out[i].From]], name[g.nodes[out[j].From]]
		if fi != fj {
			return fi < fj
		}
		return name[g.nodes[out[i].To]] < name[g.nodes[out[j].To]]
	})
	return out
}

// EdgeLabel returns the label of the edge from→to and whether it exists.
func (g *Graph) EdgeLabel(from, to dependency.Position) (Label, bool) {
	l, ok := g.labels[[2]dependency.Position{from, to}]
	return l, ok
}

// DangerousCycle describes a strongly connected component witnessing a
// violation of the SWR condition.
type DangerousCycle struct {
	// Nodes of the strongly connected component.
	Nodes []dependency.Position
	// MEdge and SEdge are witnesses inside the component.
	MEdge, SEdge Edge
}

// String renders the witness.
func (d DangerousCycle) String() string {
	parts := make([]string, len(d.Nodes))
	for i, n := range d.Nodes {
		parts[i] = n.String()
	}
	return fmt.Sprintf("cycle through {%s} with m-edge %v->%v and s-edge %v->%v",
		strings.Join(parts, ", "), d.MEdge.From, d.MEdge.To, d.SEdge.From, d.SEdge.To)
}

// DangerousCycles returns one witness per strongly connected component that
// contains both an m-labelled and an s-labelled edge, in component order;
// the witnesses are the component's first such edges in Edges order. In a
// strongly connected component any two edges lie on a common closed walk,
// so a non-empty result is exactly "some cycle contains both an m-edge and
// an s-edge" (reading cycle as closed walk; this is the conservative reading
// — it can only make the sufficient condition more cautious).
func (g *Graph) DangerousCycles() []DangerousCycle {
	edges := g.Edges()
	comp := g.components(edges)
	witness := make([]struct{ m, s *Edge }, len(g.order)) // by component id
	for i := range edges {
		e := &edges[i]
		c := comp[g.nodes[e.From]]
		if c != comp[g.nodes[e.To]] {
			continue
		}
		if e.Label.Has(M) && witness[c].m == nil {
			witness[c].m = e
		}
		if e.Label.Has(S) && witness[c].s == nil {
			witness[c].s = e
		}
	}
	var out []DangerousCycle
	for id, w := range witness {
		if w.m == nil || w.s == nil {
			continue
		}
		var nodes []dependency.Position
		for i, n := range g.order {
			if comp[i] == id {
				nodes = append(nodes, n)
			}
		}
		out = append(out, DangerousCycle{Nodes: nodes, MEdge: *w.m, SEdge: *w.s})
	}
	return out
}

// HasCycle reports whether the graph has any directed cycle at all.
func (g *Graph) HasCycle() bool {
	edges := g.Edges()
	comp := g.components(edges)
	for _, e := range edges {
		if comp[g.nodes[e.From]] == comp[g.nodes[e.To]] {
			return true
		}
	}
	return false
}

// components returns the strongly connected component id of every node,
// indexed like order, over the given edges of the graph.
func (g *Graph) components(edges []Edge) []int {
	adj := make([][]int, len(g.order))
	for _, e := range edges {
		from := g.nodes[e.From]
		adj[from] = append(adj[from], g.nodes[e.To])
	}
	return digraph.SCC(adj)
}

// Result is the outcome of the SWR test.
type Result struct {
	// SWR reports whether the set is Simply Weakly Recursive.
	SWR bool
	// Exact is false when the input was not simple, in which case SWR is a
	// best-effort answer (the paper's definition presupposes simple TGDs).
	Exact bool
	// Violations holds one witness per dangerous component when !SWR.
	Violations []DangerousCycle
	// Graph is the constructed position graph.
	Graph *Graph
}

// Check builds the position graph and applies Definition 5: the set is SWR
// iff every rule is simple and no cycle carries both m and s.
func Check(set *dependency.Set) *Result {
	g := Build(set)
	viol := g.DangerousCycles()
	return &Result{
		SWR:        g.Exact && len(viol) == 0,
		Exact:      g.Exact,
		Violations: viol,
		Graph:      g,
	}
}

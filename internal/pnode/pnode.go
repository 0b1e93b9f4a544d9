// Package pnode implements the paper's P-node graph and the Weakly
// Recursive (WR) class test (Definitions 6–8).
//
// The paper gives the ingredients — P-atoms over a finite alphabet
// (Definition 6), P-nodes pairing a P-atom with its context (Definition 7),
// four edge labels s/m/d/i, and the acyclicity condition (Definition 8) —
// but defers the full construction to an unpublished manuscript [12]. This
// package is therefore a documented reconstruction (summarized below),
// validated against every data point the paper fixes:
//
//   - Example 2 is classified NOT WR (a cycle carrying d, m and s);
//   - Example 3 is classified WR (the apparent r→t→s→r recursion is broken
//     by the context check on existential unification);
//   - on simple TGDs, WR subsumes SWR (checked by property tests).
//
// Reconstruction summary. P-atom variables are two-sorted: bound markers
// x1, x2, ... (values possibly known: answer variables, constants, frontier
// chains) and unbound markers z1, z2, ... (rewriting-introduced existential
// variables). This deviates from the paper's single symbol z: keeping
// distinct unbound markers avoids conflating independent existentials, which
// would both block sound steps and miss dangerous ones. A node ⟨σ, Σ⟩ pairs
// an atom σ with its context Σ (the instantiated body of the rule
// application that produced σ, σ ∈ Σ). Edges mirror backward rewriting
// steps and carry labels:
//
//   - m: some distinguished variable of the applied rule does not occur in
//     the produced body atom — a binding is lost (the same per-rule-atom
//     condition as the position graph's Definition 4 point 1(d));
//   - s: an unbound class spreads over two or more body atoms — a join on
//     an unknown is introduced;
//   - d: the produced atom is less bounded than σ — its number of unbound
//     marker positions strictly exceeds σ's, or its number of bound
//     positions (constants and bound markers) is strictly below σ's;
//   - i: the produced atom shares no variables with the rest of the rule
//     application — an isolated boolean subquery that cannot feed a chain.
//
// A set is WR iff no cycle avoiding i-edges carries d, m and s (Def. 8).
package pnode

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dependency"
	"repro/internal/digraph"
	"repro/internal/logic"
)

// Label is a set of edge labels (bit set over m, s, d, i).
type Label uint8

// Edge labels of the P-node graph.
const (
	// M marks binding-loss edges.
	M Label = 1 << iota
	// S marks existential-splitting edges.
	S
	// D marks bounded-argument-decreasing edges.
	D
	// I marks isolated-atom edges.
	I
)

// Has reports whether l contains all labels of want.
func (l Label) Has(want Label) bool { return l&want == want }

// String renders the label set like "d,m,s".
func (l Label) String() string {
	var parts []string
	if l.Has(D) {
		parts = append(parts, "d")
	}
	if l.Has(I) {
		parts = append(parts, "i")
	}
	if l.Has(M) {
		parts = append(parts, "m")
	}
	if l.Has(S) {
		parts = append(parts, "s")
	}
	return strings.Join(parts, ",")
}

// Markers of the two-sorted P-atom alphabet. Bound markers are variables
// named x1, x2, ...; unbound markers are z1, z2, ... . The names use a
// reserved prefix internally and are pretty-printed as x/z.
const (
	boundPrefix   = "x"
	unboundPrefix = "z"
)

// isUnboundName reports whether a canonical variable name is an unbound
// marker.
func isUnboundName(name string) bool { return strings.HasPrefix(name, unboundPrefix) }

// Node is a canonical P-node ⟨σ, Σ⟩ with σ ∈ Σ.
type Node struct {
	// Sigma is the tracked P-atom.
	Sigma logic.Atom
	// Context is the sorted instantiated rule body that produced Sigma
	// (just {Sigma} for initial nodes).
	Context []logic.Atom
	key     string
	id      int // index in the graph's construction order
}

// Key returns the canonical identity of the node.
func (n *Node) Key() string { return n.key }

// String renders ⟨σ, {…}⟩.
func (n *Node) String() string {
	if len(n.Context) == 1 && n.Context[0].Equal(n.Sigma) {
		return n.Sigma.String()
	}
	return fmt.Sprintf("<%s | %s>", n.Sigma, logic.AtomsString(n.Context))
}

// Edge is a labelled edge of the P-node graph.
type Edge struct {
	From, To *Node
	Label    Label
}

// Graph is a built P-node graph.
type Graph struct {
	// Complete is false when the node budget was exhausted; the WR answer
	// is then "unknown" and Check reports it as not certified.
	Complete bool

	nodes  map[string]*Node
	order  []*Node
	labels map[[2]string]Label // key: (from, to) node keys
}

// maxNodes bounds the node count of one graph. The node space is finite but
// exponential in the worst case — matching the paper's PSPACE membership
// conjecture for WR.
var maxNodes = 20000

// canonicalize builds the canonical Node for (sigma, context), renaming
// variables to x/z markers. unbound tells which variables are unbound.
// Canonicalization is a double pass (rename, sort, rename, sort) so the
// result is independent of the incoming atom order for all but rare
// symmetric contexts (which only yields duplicate nodes, never unsoundness:
// duplicates add edges, making the test more conservative).
func canonicalize(sigma logic.Atom, context []logic.Atom, unbound map[logic.Term]bool) *Node {
	cur := sigma
	ctx := logic.CloneAtoms(context)
	ub := unbound
	for pass := 0; pass < 2; pass++ {
		ren := logic.NewSubst()
		nextUB := make(map[logic.Term]bool)
		nb, nz := 0, 0
		assign := func(t logic.Term) {
			if !t.IsVar() {
				return
			}
			if _, ok := ren[t]; ok {
				return
			}
			var nv logic.Term
			if ub[t] {
				nz++
				nv = logic.NewVar(fmt.Sprintf("\x00%s%d", unboundPrefix, nz))
				nextUB[logic.NewVar(fmt.Sprintf("%s%d", unboundPrefix, nz))] = true
			} else {
				nb++
				nv = logic.NewVar(fmt.Sprintf("\x00%s%d", boundPrefix, nb))
			}
			ren.Bind(t, nv)
		}
		for _, t := range cur.Args {
			assign(t)
		}
		for _, a := range ctx {
			for _, t := range a.Args {
				assign(t)
			}
		}
		// Strip the reservation byte in a second substitution (two-phase
		// renaming avoids chains when inputs already use x/z names).
		strip := logic.NewSubst()
		for _, img := range ren {
			strip.Bind(img, logic.NewVar(img.Name[1:]))
		}
		cur = strip.ApplyAtom(ren.ApplyAtom(cur))
		ctx = strip.ApplyAtoms(ren.ApplyAtoms(ctx))
		sort.Slice(ctx, func(i, j int) bool { return ctx[i].Key() < ctx[j].Key() })
		ub = nextUB
	}
	var b strings.Builder
	b.WriteString(cur.Key())
	for _, a := range ctx {
		b.WriteByte(2)
		b.WriteString(a.Key())
	}
	return &Node{Sigma: cur, Context: ctx, key: b.String()}
}

// genericNode returns the fully generic node r(x1..xn) — the most general
// query atom over r, context just itself. These are the initial nodes and
// the analogue of the position graph's r[ ] nodes.
func genericNode(pred string, arity int) *Node {
	args := make([]logic.Term, arity)
	for i := range args {
		args[i] = logic.NewVar(fmt.Sprintf("%s%d", boundPrefix, i+1))
	}
	a := logic.NewAtom(pred, args...)
	return canonicalize(a, []logic.Atom{a}, nil)
}

// Build constructs the P-node graph of the rule set.
func Build(set *dependency.Set) *Graph {
	g := &Graph{
		Complete: true,
		nodes:    make(map[string]*Node),
		labels:   make(map[[2]string]Label),
	}
	gen := logic.NewVarGen("pn")

	var work []*Node
	push := func(n *Node) *Node {
		if existing, ok := g.nodes[n.key]; ok {
			return existing
		}
		if len(g.nodes) >= maxNodes {
			g.Complete = false
			return n
		}
		n.id = len(g.order)
		g.nodes[n.key] = n
		g.order = append(g.order, n)
		work = append(work, n)
		return n
	}

	sig, err := set.Predicates()
	if err != nil {
		// Arity conflicts make the graph meaningless; return an empty,
		// incomplete graph (Check surfaces it as not certified).
		g.Complete = false
		return g
	}
	for _, r := range set.Rules {
		for _, h := range r.Head {
			push(genericNode(h.Pred, sig[h.Pred]))
		}
	}

	// One renamed copy of each rule serves every node: node variables are
	// canonical x/z markers, while a copy's variables (and the fresh ones
	// expand invents) are named pn#k.
	renamed := make([]*dependency.TGD, len(set.Rules))
	for i, r := range set.Rules {
		renamed[i] = r.Rename(gen)
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		for _, rule := range renamed {
			for _, alpha := range rule.Head {
				if alpha.Pred != n.Sigma.Pred {
					continue
				}
				g.expand(n, rule, alpha, sig, gen, push)
				if !g.Complete {
					return g
				}
			}
		}
	}
	return g
}

// expand applies one rule (via head atom alpha) to node n, adding edges and
// successor nodes.
func (g *Graph) expand(n *Node, rule *dependency.TGD, alpha logic.Atom,
	sig map[string]int, gen *logic.VarGen, push func(*Node) *Node) {

	u := logic.NewUnifier()
	if !u.UnifyAtoms(n.Sigma, alpha) {
		return
	}

	nodeVars := make(map[logic.Term]bool)
	for _, a := range n.Context {
		for _, v := range a.Vars() {
			nodeVars[v] = true
		}
	}
	ruleHeadVars := make(map[logic.Term]bool)
	for _, v := range rule.HeadVars() {
		ruleHeadVars[v] = true
	}
	ctxOutside := make(map[logic.Term]bool) // node vars occurring in Σ\{σ}
	for _, a := range n.Context {
		if a.Equal(n.Sigma) {
			continue
		}
		for _, v := range a.Vars() {
			ctxOutside[v] = true
		}
	}

	// Applicability: every existential head variable's class must contain
	// no rigid term, no other rule variable, and no node variable occurring
	// outside σ in the context (the context check the P-node graph exists
	// for).
	for _, e := range rule.ExistentialHead() {
		for _, member := range u.ClassOf(e) {
			if member == e {
				continue
			}
			if member.IsRigid() {
				return
			}
			if ruleHeadVars[member] {
				return
			}
			if nodeVars[member] && ctxOutside[member] {
				return
			}
		}
	}

	// Build the class substitution for the rule body: each class maps to
	// its constant if any, else to a fresh variable tagged with the class
	// kind (unbound iff every member is an unbound marker or a rule
	// variable — bound markers and constants make a class bound).
	gamma := logic.NewSubst()
	freshUnbound := make(map[logic.Term]bool)
	classRep := make(map[logic.Term]logic.Term) // union-find root -> image
	imageOf := func(t logic.Term) logic.Term {
		if t.IsConst() {
			return t
		}
		root := u.Find(t)
		if root.IsConst() {
			return root
		}
		if img, ok := classRep[root]; ok {
			return img
		}
		kindUnbound := true
		for _, member := range u.ClassOf(root) {
			if member.IsConst() {
				kindUnbound = false
				break
			}
			if nodeVars[member] && !isUnboundName(member.Name) {
				kindUnbound = false
				break
			}
		}
		img := gen.FreshVar()
		if kindUnbound {
			freshUnbound[img] = true
		}
		classRep[root] = img
		return img
	}
	// Existential body variables are fresh unbound existentials.
	for _, w := range rule.ExistentialBody() {
		img := gen.FreshVar()
		freshUnbound[img] = true
		gamma.Bind(w, img)
	}
	for _, v := range rule.BodyVars() {
		if _, ok := gamma[v]; !ok {
			gamma.Bind(v, imageOf(v))
		}
	}

	bodyImg := gamma.ApplyAtoms(rule.Body)

	// σ-variable class images, for the m-label: a class is "erased" when
	// its image occurs nowhere in a given body atom.
	var sigmaImages []logic.Term
	seenRoot := make(map[logic.Term]bool)
	for _, v := range n.Sigma.Vars() {
		root := u.Find(v)
		if seenRoot[root] {
			continue
		}
		seenRoot[root] = true
		if root.IsConst() {
			sigmaImages = append(sigmaImages, root)
			continue
		}
		if img, ok := classRep[root]; ok {
			sigmaImages = append(sigmaImages, img)
		} else {
			// Class never touched the body: erased (existential head).
			sigmaImages = append(sigmaImages, logic.Term{})
		}
	}

	// s-label (per application): some unbound class occurs in >= 2 body
	// atoms after γ.
	splitAll := false
	for v := range freshUnbound {
		if countAtomsWith(bodyImg, v) >= 2 {
			splitAll = true
			break
		}
	}

	boundSigma, unboundSigma := kindCounts(n.Sigma)

	distinguished := rule.Distinguished()
	for bi, beta := range bodyImg {
		var label Label
		if splitAll {
			label |= S
		}
		// m: some distinguished variable of the rule does not occur in the
		// (raw) body atom — the same per-(rule, atom) condition as the
		// position graph's Definition 4 point 1(d), which keeps the WR test
		// aligned with (and subsuming) the SWR test on simple inputs.
		for _, d := range distinguished {
			if !rule.Body[bi].HasVar(d) {
				label |= M
				break
			}
		}
		// i: β isolated from the rest of the application (no shared
		// variables with other body atoms or with σ's surviving images).
		isolated := true
		for _, v := range beta.Vars() {
			for bj, other := range bodyImg {
				if bj != bi && other.HasVar(v) {
					isolated = false
					break
				}
			}
			if !isolated {
				break
			}
			for _, img := range sigmaImages {
				if v == img {
					isolated = false
					break
				}
			}
			if !isolated {
				break
			}
		}
		if isolated {
			label |= I
		}

		// Accurate successor: β in the context of the full instantiated
		// body, with the computed unbound set.
		acc := push(canonicalize(beta, bodyImg, freshUnbound))
		accLabel := label
		if bAcc, uAcc := kindCounts(acc.Sigma); uAcc > unboundSigma || bAcc < boundSigma {
			accLabel |= D
		}
		g.addEdge(n, acc, accLabel)

		// Generic successor: the fully generic node of β's relation (the
		// analogue of the position graph's point (a) edges).
		genNode := push(genericNode(beta.Pred, sig[beta.Pred]))
		genLabel := label
		if bGen, uGen := kindCounts(genNode.Sigma); uGen > unboundSigma || bGen < boundSigma {
			genLabel |= D
		}
		g.addEdge(n, genNode, genLabel)
	}
}

// kindCounts counts the bound (constants and bound markers) and unbound
// (z markers) argument positions of a P-atom.
func kindCounts(a logic.Atom) (bound, unbound int) {
	for _, t := range a.Args {
		switch {
		case t.IsConst():
			bound++
		case t.IsVar() && isUnboundName(t.Name):
			unbound++
		case t.IsVar():
			bound++
		}
	}
	return bound, unbound
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

func (g *Graph) addEdge(from, to *Node, label Label) {
	// When the node budget is exhausted push returns unregistered nodes;
	// edges to them would dangle, so drop them (Complete is already false).
	if g.nodes[from.key] == nil || g.nodes[to.key] == nil {
		return
	}
	g.labels[[2]string{from.key, to.key}] |= label
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// Edges returns all edges sorted by (from, to) key.
func (g *Graph) Edges() []Edge {
	type rec struct {
		k [2]string
		l Label
	}
	recs := make([]rec, 0, len(g.labels))
	for k, l := range g.labels {
		recs = append(recs, rec{k, l})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].k[0] != recs[j].k[0] {
			return recs[i].k[0] < recs[j].k[0]
		}
		return recs[i].k[1] < recs[j].k[1]
	})
	out := make([]Edge, len(recs))
	for i, r := range recs {
		out[i] = Edge{From: g.nodes[r.k[0]], To: g.nodes[r.k[1]], Label: r.l}
	}
	return out
}

// FindNode returns the node whose Sigma renders as the given string (e.g.
// "s(z1, z1, x1)"), or nil. Intended for tests and inspection.
func (g *Graph) FindNode(sigma string) *Node {
	for _, n := range g.order {
		if n.Sigma.String() == sigma {
			return n
		}
	}
	return nil
}

// DangerousCycle is a witness that the WR condition fails: a strongly
// connected component (over non-i edges) containing d-, m- and s-labelled
// edges.
type DangerousCycle struct {
	Nodes               []*Node
	DEdge, MEdge, SEdge Edge
}

// String renders the witness compactly.
func (d DangerousCycle) String() string {
	parts := make([]string, len(d.Nodes))
	for i, n := range d.Nodes {
		parts[i] = n.Sigma.String()
	}
	return fmt.Sprintf("cycle through {%s} with d,m,s edges", strings.Join(parts, "; "))
}

// DangerousCycles returns one witness per strongly connected component of
// the non-i subgraph containing d-, m- and s-labelled intra-component edges,
// in component order; the witnesses are the component's first such edges in
// Edges order. In a strongly connected component any set of edges lies on a
// common closed walk, so a non-empty result is exactly Definition 8's "some
// cycle contains a d-edge, an m-edge and an s-edge and no i-edge" under the
// conservative closed-walk reading.
func (g *Graph) DangerousCycles() []DangerousCycle {
	var edges []Edge
	adj := make([][]int, len(g.order))
	for _, e := range g.Edges() {
		if !e.Label.Has(I) {
			edges = append(edges, e)
			adj[e.From.id] = append(adj[e.From.id], e.To.id)
		}
	}
	comp := digraph.SCC(adj)
	witness := make([]struct{ d, m, s *Edge }, len(g.order)) // by component id
	for i := range edges {
		e := &edges[i]
		c := comp[e.From.id]
		if c != comp[e.To.id] {
			continue
		}
		w := &witness[c]
		if e.Label.Has(D) && w.d == nil {
			w.d = e
		}
		if e.Label.Has(M) && w.m == nil {
			w.m = e
		}
		if e.Label.Has(S) && w.s == nil {
			w.s = e
		}
	}
	var out []DangerousCycle
	for id, w := range witness {
		if w.d == nil || w.m == nil || w.s == nil {
			continue
		}
		var nodes []*Node
		for i, n := range g.order {
			if comp[i] == id {
				nodes = append(nodes, n)
			}
		}
		out = append(out, DangerousCycle{Nodes: nodes, DEdge: *w.d, MEdge: *w.m, SEdge: *w.s})
	}
	return out
}

// Result is the outcome of the WR test.
type Result struct {
	// WR reports whether the set was certified Weakly Recursive.
	WR bool
	// Complete is false when the node budget was exhausted (answer
	// unknown, reported as not certified).
	Complete bool
	// Violations holds one witness per dangerous component when !WR.
	Violations []DangerousCycle
	// Graph is the constructed P-node graph.
	Graph *Graph
}

// Check builds the P-node graph and applies Definition 8.
func Check(set *dependency.Set) *Result {
	g := Build(set)
	viol := g.DangerousCycles()
	return &Result{
		WR:         g.Complete && len(viol) == 0,
		Complete:   g.Complete,
		Violations: viol,
		Graph:      g,
	}
}

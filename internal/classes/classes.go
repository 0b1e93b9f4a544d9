// Package classes implements the previously known TGD classes the paper
// compares SWR and WR against: Linear, Multilinear, Sticky, Sticky-Join,
// Guarded, Domain-Restricted, Weakly-Acyclic (chase termination) and
// Acyclic-GRD. Each classifier returns a verdict with a human-readable
// reason, and Survey runs them all.
//
// Definitions follow the literature as used by the paper:
//
//   - Linear (Calì-Gottlob-Lukasiewicz): single body atom.
//   - Multilinear: every body atom contains every distinguished variable.
//   - Sticky (Calì-Gottlob-Pieris): under the sticky marking, no marked
//     variable occurs more than once in a rule body (counting repeats
//     inside one atom).
//   - Sticky-Join: the marking is computed on the join-expanded set (rule
//     heads specialized by the equality patterns that repeated variables in
//     body atoms demand); then no marked variable may occur in two distinct
//     body atoms (repeats inside one atom are allowed, which is what makes
//     sticky-join subsume both Sticky and Linear). Matches the paper's
//     Example 3 reason ("y1 appears in two different atoms of body(R3)")
//     and correctly rejects Example 2.
//   - Domain-Restricted (Baget et al.): every head atom contains all or
//     none of the body variables.
//   - Guarded: some body atom contains every body variable.
//   - Weakly-Acyclic (Fagin et al.): no cycle through a special edge in the
//     position dependency graph; guarantees chase termination.
//   - Acyclic-GRD: the graph of rule dependencies is acyclic.
package classes

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dependency"
	"repro/internal/digraph"
	"repro/internal/grd"
	"repro/internal/logic"
	"repro/internal/pnode"
	"repro/internal/posgraph"
)

// Verdict is the outcome of one classifier.
type Verdict struct {
	// Class is the class name, e.g. "linear".
	Class string
	// Member reports whether the set belongs to the class.
	Member bool
	// Reason explains the first violation when Member is false, or is
	// empty on membership.
	Reason string
}

func (v Verdict) String() string {
	if v.Member {
		return v.Class + ": yes"
	}
	return v.Class + ": no (" + v.Reason + ")"
}

// Linear reports whether every rule has a single body atom.
func Linear(set *dependency.Set) Verdict {
	for _, r := range set.Rules {
		if len(r.Body) != 1 {
			return Verdict{"linear", false,
				fmt.Sprintf("body of %s has %d atoms", r.Label, len(r.Body))}
		}
	}
	return Verdict{Class: "linear", Member: true}
}

// Multilinear reports whether every body atom of every rule contains all of
// the rule's distinguished variables.
func Multilinear(set *dependency.Set) Verdict {
	for _, r := range set.Rules {
		for _, beta := range r.Body {
			for _, d := range r.Distinguished() {
				if !beta.HasVar(d) {
					return Verdict{"multilinear", false,
						fmt.Sprintf("%v in %s does not contain the distinguished variable %v",
							beta, r.Label, d)}
				}
			}
		}
	}
	return Verdict{Class: "multilinear", Member: true}
}

// StickyMarking computes the sticky marking: the set of (rule index, body
// variable) pairs that are marked. Initially a body variable is marked when
// it does not occur anywhere in the head (its value is lost by applying the
// rule). Propagation: if a variable x occurs in the head of rule R at a
// position at which some rule's body carries a marked variable, then x is
// marked in R's body. Iterated to fixpoint.
func StickyMarking(set *dependency.Set) map[int]map[logic.Term]bool {
	marked := make(map[int]map[logic.Term]bool, len(set.Rules))
	for i := range set.Rules {
		marked[i] = make(map[logic.Term]bool)
	}
	// Initial marking: body variables not occurring anywhere in the head.
	for i, r := range set.Rules {
		headVars := make(map[logic.Term]bool)
		for _, v := range r.HeadVars() {
			headVars[v] = true
		}
		for _, v := range r.BodyVars() {
			if !headVars[v] {
				marked[i][v] = true
			}
		}
	}
	// markedPositions: positions (pred, idx) at which a marked variable
	// occurs in some body.
	for {
		markedPos := make(map[dependency.Position]bool)
		for i, r := range set.Rules {
			for _, beta := range r.Body {
				for idx, t := range beta.Args {
					if t.IsVar() && marked[i][t] {
						markedPos[dependency.Position{Rel: beta.Pred, Idx: idx + 1}] = true
					}
				}
			}
		}
		changed := false
		for i, r := range set.Rules {
			for _, h := range r.Head {
				for idx, t := range h.Args {
					if !t.IsVar() || marked[i][t] {
						continue
					}
					if markedPos[dependency.Position{Rel: h.Pred, Idx: idx + 1}] {
						// Only mark variables that occur in the body.
						inBody := false
						for _, b := range r.Body {
							if b.HasVar(t) {
								inBody = true
								break
							}
						}
						if inBody {
							marked[i][t] = true
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			return marked
		}
	}
}

// Sticky reports whether no marked variable occurs more than once in a rule
// body (including repeats within one atom).
func Sticky(set *dependency.Set) Verdict {
	marked := StickyMarking(set)
	for i, r := range set.Rules {
		count := make(map[logic.Term]int)
		for _, beta := range r.Body {
			for _, t := range beta.Args {
				if t.IsVar() {
					count[t]++
				}
			}
		}
		for _, v := range r.BodyVars() {
			if count[v] > 1 && marked[i][v] {
				return Verdict{"sticky", false,
					fmt.Sprintf("marked variable %v occurs %d times in body of %s", v, count[v], r.Label)}
			}
		}
	}
	return Verdict{Class: "sticky", Member: true}
}

// joinExpansion returns the set extended with head specializations induced
// by within-atom repeated variables: whenever some body atom in the set
// repeats a variable at positions i and j of predicate p, every rule whose
// head produces p is specialized by unifying its head arguments at i and j
// (the repeated-variable demand travels backwards through rule application).
// Iterated to fixpoint; bodies never change, so the demand set is fixed and
// the iteration terminates (each specialization merges head variables).
func joinExpansion(set *dependency.Set) *dependency.Set {
	type demand struct {
		pred string
		i, j int
	}
	demandSet := make(map[demand]bool)
	for _, r := range set.Rules {
		for _, beta := range r.Body {
			for i := 0; i < len(beta.Args); i++ {
				for j := i + 1; j < len(beta.Args); j++ {
					if beta.Args[i].IsVar() && beta.Args[i] == beta.Args[j] {
						demandSet[demand{beta.Pred, i, j}] = true
					}
				}
			}
		}
	}
	demands := make([]demand, 0, len(demandSet))
	for d := range demandSet {
		demands = append(demands, d)
	}
	sort.Slice(demands, func(a, b int) bool {
		if demands[a].pred != demands[b].pred {
			return demands[a].pred < demands[b].pred
		}
		if demands[a].i != demands[b].i {
			return demands[a].i < demands[b].i
		}
		return demands[a].j < demands[b].j
	})
	rules := append([]*dependency.TGD{}, set.Rules...)
	seen := make(map[string]bool)
	for _, r := range rules {
		seen[r.String()] = true
	}
	for idx := 0; idx < len(rules); idx++ {
		r := rules[idx]
		for _, h := range r.Head {
			for _, d := range demands {
				if h.Pred != d.pred || d.j >= len(h.Args) {
					continue
				}
				u := logic.NewUnifier()
				if !u.Union(h.Args[d.i], h.Args[d.j]) {
					continue
				}
				s := u.Subst()
				if len(s) == 0 {
					continue // already equal
				}
				spec := &dependency.TGD{
					Label: r.Label + "'",
					Body:  s.ApplyAtoms(r.Body),
					Head:  s.ApplyAtoms(r.Head),
				}
				if key := spec.String(); !seen[key] {
					seen[key] = true
					rules = append(rules, spec)
				}
			}
		}
	}
	return &dependency.Set{Rules: rules}
}

// StickyJoin reports whether the set is sticky-join: under the sticky
// marking of the join-expanded set, no marked variable occurs in two
// distinct body atoms (repeats within a single atom are allowed — this is
// what makes sticky-join subsume both Sticky and Linear). The expansion is
// what correctly rejects the paper's Example 2, whose within-atom join in
// R2 forces a marked cross-atom join once propagated into R1's head.
func StickyJoin(set *dependency.Set) Verdict {
	exp := joinExpansion(set)
	marked := StickyMarking(exp)
	for i, r := range exp.Rules {
		atomsWith := make(map[logic.Term]int)
		for _, beta := range r.Body {
			for _, v := range beta.Vars() {
				atomsWith[v]++
			}
		}
		for _, v := range r.BodyVars() {
			if atomsWith[v] > 1 && marked[i][v] {
				return Verdict{"sticky-join", false,
					fmt.Sprintf("marked variable %v occurs in %d body atoms of %s", v, atomsWith[v], r.Label)}
			}
		}
	}
	return Verdict{Class: "sticky-join", Member: true}
}

// Guarded reports whether every rule has a body atom containing all body
// variables.
func Guarded(set *dependency.Set) Verdict {
	for _, r := range set.Rules {
		vars := r.BodyVars()
		guarded := false
		for _, beta := range r.Body {
			all := true
			for _, v := range vars {
				if !beta.HasVar(v) {
					all = false
					break
				}
			}
			if all {
				guarded = true
				break
			}
		}
		if !guarded {
			return Verdict{"guarded", false,
				fmt.Sprintf("no body atom of %s guards all body variables", r.Label)}
		}
	}
	return Verdict{Class: "guarded", Member: true}
}

// DomainRestricted reports whether every head atom of every rule contains
// either all or none of the rule's body variables.
func DomainRestricted(set *dependency.Set) Verdict {
	for _, r := range set.Rules {
		bodyVars := r.BodyVars()
		for _, h := range r.Head {
			have := 0
			for _, v := range bodyVars {
				if h.HasVar(v) {
					have++
				}
			}
			if have != 0 && have != len(bodyVars) {
				return Verdict{"domain-restricted", false,
					fmt.Sprintf("head atom %v of %s contains %d of %d body variables",
						h, r.Label, have, len(bodyVars))}
			}
		}
	}
	return Verdict{Class: "domain-restricted", Member: true}
}

// WeaklyAcyclic reports whether the set is weakly acyclic in the sense of
// Fagin et al.: the position dependency graph (regular edges from body
// positions of a distinguished variable to its head positions; special
// edges from those body positions to every existential-variable head
// position of the same rule) has no cycle through a special edge. Weak
// acyclicity guarantees chase termination in polynomially many steps.
func WeaklyAcyclic(set *dependency.Set) Verdict {
	type edge struct {
		from, to dependency.Position
		special  bool
	}
	var edges []edge
	idx := make(map[dependency.Position]int) // node -> first-seen index
	node := func(p dependency.Position) {
		if _, ok := idx[p]; !ok {
			idx[p] = len(idx)
		}
	}
	for _, r := range set.Rules {
		existHead := make(map[logic.Term]bool)
		for _, v := range r.ExistentialHead() {
			existHead[v] = true
		}
		for _, d := range r.Distinguished() {
			var bodyPos []dependency.Position
			for _, beta := range r.Body {
				bodyPos = append(bodyPos, dependency.AllPosOf(d, beta)...)
			}
			var headPos []dependency.Position
			var specialPos []dependency.Position
			for _, h := range r.Head {
				headPos = append(headPos, dependency.AllPosOf(d, h)...)
				for idx, t := range h.Args {
					if t.IsVar() && existHead[t] {
						specialPos = append(specialPos, dependency.Position{Rel: h.Pred, Idx: idx + 1})
					}
				}
			}
			for _, bp := range bodyPos {
				node(bp)
				for _, hp := range headPos {
					node(hp)
					edges = append(edges, edge{bp, hp, false})
				}
				for _, sp := range specialPos {
					node(sp)
					edges = append(edges, edge{bp, sp, true})
				}
			}
		}
	}
	// A special edge inside a strongly connected component is a violation.
	adj := make([][]int, len(idx))
	for _, e := range edges {
		adj[idx[e.from]] = append(adj[idx[e.from]], idx[e.to])
	}
	comp := digraph.SCC(adj)
	for _, e := range edges {
		if e.special && comp[idx[e.from]] == comp[idx[e.to]] {
			return Verdict{"weakly-acyclic", false,
				fmt.Sprintf("special edge %v => %v lies on a cycle", e.from, e.to)}
		}
	}
	return Verdict{Class: "weakly-acyclic", Member: true}
}

// AcyclicGRD reports whether the graph of rule dependencies is acyclic.
func AcyclicGRD(set *dependency.Set) Verdict {
	cycle := grd.Build(set).Cycle()
	if len(cycle) == 0 {
		return Verdict{Class: "acyclic-grd", Member: true}
	}
	return Verdict{"acyclic-grd", false,
		fmt.Sprintf("dependency cycle %s", strings.Join(cycle, " -> "))}
}

// Simple reports whether every rule satisfies the paper's simple-TGD
// conditions (§5 (i)–(iii)).
func Simple(set *dependency.Set) Verdict {
	for _, r := range set.Rules {
		if viol := r.SimpleViolations(); len(viol) > 0 {
			return Verdict{"simple", false,
				fmt.Sprintf("%s violates %s", r.Label, viol[0])}
		}
	}
	return Verdict{Class: "simple", Member: true}
}

// SWR wraps the position-graph test as a Verdict.
func SWR(set *dependency.Set) Verdict {
	res := posgraph.Check(set)
	if res.SWR {
		return Verdict{Class: "swr", Member: true}
	}
	if !res.Exact {
		return Verdict{"swr", false, "set is not simple (SWR requires simple TGDs)"}
	}
	return Verdict{"swr", false, res.Violations[0].String()}
}

// WR wraps the P-node-graph test as a Verdict.
func WR(set *dependency.Set) Verdict {
	res := pnode.Check(set)
	if res.WR {
		return Verdict{Class: "wr", Member: true}
	}
	if !res.Complete {
		return Verdict{"wr", false, "node budget exhausted (membership unknown)"}
	}
	return Verdict{"wr", false, res.Violations[0].String()}
}

// Survey runs every classifier on the set, in a fixed presentation order.
func Survey(set *dependency.Set) []Verdict {
	return []Verdict{
		Simple(set),
		Linear(set),
		Multilinear(set),
		Sticky(set),
		StickyJoin(set),
		Guarded(set),
		DomainRestricted(set),
		WeaklyAcyclic(set),
		AcyclicGRD(set),
		SWR(set),
		WR(set),
	}
}

// foCertifying names the classes whose membership is a sufficient condition
// for FO-rewritability: Linear, Multilinear, Sticky, Sticky-Join,
// Domain-Restricted, Acyclic-GRD, SWR and WR.
var foCertifying = map[string]bool{
	"linear": true, "multilinear": true, "sticky": true, "sticky-join": true,
	"domain-restricted": true, "acyclic-grd": true, "swr": true, "wr": true,
}

// Certificates returns, in verdict order, the FO-rewritability sufficient
// conditions the verdicts report membership in (nil when none does).
func Certificates(verdicts []Verdict) []string {
	var by []string
	for _, v := range verdicts {
		if v.Member && foCertifying[v.Class] {
			by = append(by, v.Class)
		}
	}
	return by
}

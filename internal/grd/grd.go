// Package grd implements the graph of rule dependencies (Baget, Leclère,
// Mugnier & Salvat 2011), one of the previously known decidability tools the
// paper compares the WR class against. A rule R2 depends on R1 when applying
// R1 can trigger a new application of R2 — decided by a piece-unification
// test between R1's head and R2's body. Sets with an acyclic GRD have
// terminating (bounded) rewritings and chases.
package grd

import (
	"sort"
	"strings"

	"repro/internal/dependency"
	"repro/internal/logic"
)

// Graph is a graph of rule dependencies: vertices are rules, and an edge
// R1 → R2 states that R2 depends on R1.
type Graph struct {
	rules []*dependency.TGD
	// adj[i] lists, ascending, the indexes j such that rule j depends on
	// rule i.
	adj [][]int
}

// Build computes the dependency graph of the set. Every rule is renamed
// apart twice, once per side of the test, and each trigger side's variable
// sets are computed once, so the n² pair tests only unify.
func Build(set *dependency.Set) *Graph {
	g := &Graph{rules: set.Rules, adj: make([][]int, len(set.Rules))}
	gen := logic.NewVarGen("grd")
	triggers := make([]trigger, len(set.Rules))
	for i, r := range set.Rules {
		triggers[i] = newTrigger(r.Rename(gen))
	}
	bodies := make([][]logic.Atom, len(set.Rules))
	for j, r := range set.Rules {
		bodies[j] = r.Rename(gen).Body
	}
	for i, t := range triggers {
		for j, body := range bodies {
			if t.triggers(body) {
				g.adj[i] = append(g.adj[i], j)
			}
		}
	}
	return g
}

// trigger is a rule renamed apart as the side whose head may trigger another
// rule's body, with its existential and frontier variables as sets.
type trigger struct {
	head     []logic.Atom
	exist    map[logic.Term]bool
	frontier map[logic.Term]bool
}

func newTrigger(r *dependency.TGD) trigger {
	t := trigger{head: r.Head, exist: make(map[logic.Term]bool), frontier: make(map[logic.Term]bool)}
	for _, v := range r.ExistentialHead() {
		t.exist[v] = true
	}
	for _, v := range r.Distinguished() {
		t.frontier[v] = true
	}
	return t
}

// triggers reports whether a rule with this (renamed-apart) body depends on
// the trigger rule: some atom of the body unifies with some atom of the
// trigger's head such that existential head variables unify only with
// variables that could be mapped to the invented nulls (not constants, not
// repeated-demand positions requiring equality with frontier terms). This is
// the standard sufficient test by piece unification on single atoms. Pairs
// of atoms with different predicates are skipped before a unifier is built.
func (t trigger) triggers(body []logic.Atom) bool {
	for _, h := range t.head {
		for _, bb := range body {
			if h.Pred != bb.Pred {
				continue
			}
			u := logic.NewUnifier()
			if !u.UnifyAtoms(h, bb) {
				continue
			}
			ok := true
			for e := range t.exist {
				for _, member := range u.ClassOf(e) {
					if member == e {
						continue
					}
					// A null invented for e cannot equal a constant or a
					// frontier value of the trigger rule; unification
					// demanding that is not a real trigger.
					if member.IsRigid() || t.frontier[member] || t.exist[member] {
						ok = false
						break
					}
				}
				if !ok {
					break
				}
			}
			if ok {
				return true
			}
		}
	}
	return false
}

// DependsOn returns the indexes of rules depending on rule i.
func (g *Graph) DependsOn(i int) []int { return g.adj[i] }

// Acyclic reports whether the dependency graph has no directed cycle
// (self-loops count as cycles).
func (g *Graph) Acyclic() bool { return len(g.Cycle()) == 0 }

// Cycle returns the labels of one rule cycle, or nothing when the graph is
// acyclic.
func (g *Graph) Cycle() []string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(g.rules))
	var path []int
	var found []int
	var visit func(int) bool
	visit = func(i int) bool {
		color[i] = gray
		path = append(path, i)
		for _, j := range g.adj[i] {
			if color[j] == gray {
				// Extract the cycle suffix from path.
				for k, p := range path {
					if p == j {
						found = append([]int{}, path[k:]...)
						return false
					}
				}
				found = []int{j}
				return false
			}
			if color[j] == white && !visit(j) {
				return false
			}
		}
		color[i] = black
		path = path[:len(path)-1]
		return true
	}
	for i := range g.rules {
		if color[i] == white && !visit(i) {
			break
		}
	}
	labels := make([]string, len(found))
	for i, idx := range found {
		labels[i] = g.rules[idx].Label
	}
	return labels
}

// String renders the dependency edges by rule label.
func (g *Graph) String() string {
	var lines []string
	for i := range g.rules {
		for _, j := range g.adj[i] {
			lines = append(lines, g.rules[i].Label+" -> "+g.rules[j].Label)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

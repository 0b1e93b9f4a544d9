// Package naive is the test-only reference the engine's fast paths are
// checked against: a nested-loop conjunctive-query matcher over a plain slice
// of facts and a textbook chase, with no indexes, plans, caches, partitions or
// goroutines — simple enough to be obviously right, slow enough to stay in
// tests. Nothing outside _test files imports it.
package naive

import (
	"fmt"
	"sort"

	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/query"
)

// Match calls yield for every extension of seed that maps all body atoms
// onto facts, by nested loops over the fact list; it stops (returning false)
// when yield does. seed is never modified.
func Match(body, facts []logic.Atom, seed logic.Subst, yield func(logic.Subst) bool) bool {
	if len(body) == 0 {
		return yield(seed)
	}
	for _, f := range facts {
		if s, ok := unify(body[0], f, seed); ok && !Match(body[1:], facts, s, yield) {
			return false
		}
	}
	return true
}

// unify extends seed so that pattern maps onto the ground fact, or fails.
func unify(pattern, fact logic.Atom, seed logic.Subst) (logic.Subst, bool) {
	if pattern.Pred != fact.Pred || len(pattern.Args) != len(fact.Args) {
		return nil, false
	}
	s := seed.Clone()
	for i, arg := range pattern.Args {
		switch w := s.Walk(arg); {
		case w.IsVar():
			s.Bind(w, fact.Args[i])
		case w != fact.Args[i]:
			return nil, false
		}
	}
	return s, true
}

// Answers evaluates the union over facts and returns the distinct null-free
// answer tuples, each rendered by Render, sorted.
func Answers(u *query.UCQ, facts []logic.Atom) []string {
	seen := make(map[string]bool)
	for _, q := range u.CQs {
		Match(q.Body, facts, logic.NewSubst(), func(s logic.Subst) bool {
			head := s.ApplyAtom(q.Head)
			for _, t := range head.Args {
				if t.IsNull() {
					return true
				}
			}
			seen[Render(head.Args)] = true
			return true
		})
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Render formats one answer tuple ("[t1 t2 ...]").
func Render(tuple []logic.Term) string {
	return fmt.Sprint(tuple)
}

// RenderAll puts an engine's answer tuples in the form Answers returns:
// rendered and sorted.
func RenderAll[T ~[]logic.Term](tuples []T) []string {
	out := make([]string, 0, len(tuples))
	for _, t := range tuples {
		out = append(out, Render(t))
	}
	sort.Strings(out)
	return out
}

// Chase runs the textbook chase of facts under rules to its fixpoint and
// returns the expansion, or ok=false when more than maxSteps rule
// applications were needed. The restricted variant applies a trigger only if
// its head is not already satisfied; the (semi-)oblivious one applies every
// (rule, frontier binding) exactly once. Applications take effect immediately
// — any fair order yields a universal model, so null-free facts and certain
// answers equal those of every other terminating chase.
func Chase(rules *dependency.Set, facts []logic.Atom, oblivious bool, maxSteps int) (out []logic.Atom, ok bool) {
	out = append(out, facts...)
	have := make(map[string]bool)
	for _, f := range facts {
		have[f.Key()] = true
	}
	fired := make(map[string]bool)
	nulls, steps := 0, 0
	for changed := true; changed; {
		changed = false
		for ri, rule := range rules.Rules {
			// Collect the triggers first: applying while matching would grow
			// the list under the loop.
			var triggers []logic.Subst
			Match(rule.Body, out, logic.NewSubst(), func(s logic.Subst) bool {
				triggers = append(triggers, s.Restrict(rule.Distinguished()))
				return true
			})
			for _, h := range triggers {
				if oblivious {
					key := fmt.Sprint(ri, h.ApplyAtoms(rule.Head))
					if fired[key] {
						continue
					}
					fired[key] = true
				} else if !Match(rule.Head, out, h, func(logic.Subst) bool { return false }) {
					continue // some extension of h already satisfies the head
				}
				if steps++; steps > maxSteps {
					return out, false
				}
				for _, e := range rule.ExistentialHead() {
					nulls++
					h.Bind(e, logic.NewNull(fmt.Sprintf("naive#%d", nulls)))
				}
				for _, a := range h.ApplyAtoms(rule.Head) {
					if !have[a.Key()] {
						have[a.Key()] = true
						out = append(out, a)
						changed = true
					}
				}
			}
		}
	}
	return out, true
}

// GroundFacts returns the null-free facts, rendered and sorted — the part of
// a chase every terminating run agrees on.
func GroundFacts(facts []logic.Atom) []string {
	var out []string
	for _, f := range facts {
		ground := true
		for _, t := range f.Args {
			if t.IsNull() {
				ground = false
			}
		}
		if ground {
			out = append(out, f.String())
		}
	}
	sort.Strings(out)
	return out
}

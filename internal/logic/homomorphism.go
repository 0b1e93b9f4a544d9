package logic

import (
	"sort"
	"strings"
)

// HomOptions configures homomorphism search.
type HomOptions struct {
	// MapNulls allows labelled nulls in the source to be mapped like
	// variables (used when checking whether one chase instance folds into
	// another). When false, nulls are rigid and must map to themselves.
	MapNulls bool
	// Fixed pins source variables to required images; the search only
	// considers extensions of it. May be nil.
	Fixed Subst
	// Limit bounds how many homomorphisms AllHomomorphisms returns
	// (0 = unlimited).
	Limit int
}

// nullShadowPrefix marks variables that stand in for nulls during search.
// The prefix contains a NUL byte, so it can never collide with a parsed or
// generated variable name.
const nullShadowPrefix = "\x00null:"

// shadowNulls replaces every null in atoms with a reserved variable so the
// plain variable-mapping search can bind it. Each distinct null maps to one
// distinct shadow variable, preserving co-occurrence constraints.
func shadowNulls(atoms []Atom) []Atom {
	out := make([]Atom, len(atoms))
	for i, a := range atoms {
		args := make([]Term, len(a.Args))
		changed := false
		for j, t := range a.Args {
			if t.IsNull() {
				args[j] = NewVar(nullShadowPrefix + t.Name)
				changed = true
			} else {
				args[j] = t
			}
		}
		if changed {
			out[i] = Atom{Pred: a.Pred, Args: args}
		} else {
			out[i] = a
		}
	}
	return out
}

// unshadow translates a shadow-variable binding back to the original terms:
// keys that encode nulls are dropped (callers interested in null images can
// inspect the full substitution before restriction).
func isShadowVar(t Term) bool {
	return t.IsVar() && strings.HasPrefix(t.Name, nullShadowPrefix)
}

// Homomorphism searches for a homomorphism from the source atoms into the
// target atom set: a mapping h on the variables (and, with MapNulls, the
// nulls) of src such that h(a) ∈ target for every a ∈ src. Constants map to
// themselves. It returns the first mapping found (restricted to the source
// variables) and true, or nil and false.
func Homomorphism(src []Atom, target []Atom, opts HomOptions) (Subst, bool) {
	var found Subst
	enumerate(src, target, opts, func(s Subst) bool {
		found = s
		return false
	})
	if found == nil {
		return nil, false
	}
	return found, true
}

// AllHomomorphisms returns every homomorphism from src into target, up to
// opts.Limit (0 = all). Each substitution is restricted to the variables of
// src.
func AllHomomorphisms(src []Atom, target []Atom, opts HomOptions) []Subst {
	var out []Subst
	enumerate(src, target, opts, func(s Subst) bool {
		out = append(out, s)
		return opts.Limit == 0 || len(out) < opts.Limit
	})
	return out
}

// enumerate runs the backtracking search, calling yield with each complete
// mapping (restricted to the original source variables); enumeration stops
// when yield returns false.
func enumerate(src []Atom, target []Atom, opts HomOptions, yield func(Subst) bool) {
	work := src
	if opts.MapNulls {
		work = shadowNulls(src)
	}
	srcVars := VarsOf(work)
	byPred := make(map[string][]Atom, len(target))
	for _, a := range target {
		byPred[a.Pred] = append(byPred[a.Pred], a)
	}
	order := orderAtomsForSearch(work, byPred)
	binding := NewSubst()
	if opts.Fixed != nil {
		for v, t := range opts.Fixed {
			binding[v] = t
		}
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(order) {
			result := NewSubst()
			for _, v := range srcVars {
				if isShadowVar(v) {
					continue
				}
				if img := binding.Walk(v); img != v {
					result[v] = img
				}
			}
			return yield(result)
		}
		a := order[i]
		for _, cand := range byPred[a.Pred] {
			if len(cand.Args) != len(a.Args) {
				continue
			}
			var undo []Term
			ok := true
			for j := range a.Args {
				s := binding.Walk(a.Args[j])
				t := cand.Args[j]
				switch {
				case s == t:
				case s.IsVar():
					binding[s] = t
					undo = append(undo, s)
				default:
					ok = false
				}
				if !ok {
					break
				}
			}
			if ok && !rec(i+1) {
				for _, v := range undo {
					delete(binding, v)
				}
				return false
			}
			for _, v := range undo {
				delete(binding, v)
			}
		}
		return true
	}
	rec(0)
}

// orderAtomsForSearch orders atoms most-selective-first, then greedily by
// connectivity so variable bindings propagate early.
func orderAtomsForSearch(src []Atom, byPred map[string][]Atom) []Atom {
	scored := make([]Atom, len(src))
	copy(scored, src)
	score := func(a Atom) int {
		base := len(byPred[a.Pred]) * 4
		for _, t := range a.Args {
			if t.IsRigid() {
				base--
			}
		}
		return base
	}
	sort.SliceStable(scored, func(i, j int) bool { return score(scored[i]) < score(scored[j]) })

	placed := make([]Atom, 0, len(scored))
	haveVars := make(map[Term]bool)
	remaining := scored
	for len(remaining) > 0 {
		best := 0
		if len(placed) > 0 {
			found := false
			for i, a := range remaining {
				for _, v := range a.Vars() {
					if haveVars[v] {
						best, found = i, true
						break
					}
				}
				if found {
					break
				}
			}
		}
		a := remaining[best]
		placed = append(placed, a)
		for _, v := range a.Vars() {
			haveVars[v] = true
		}
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return placed
}

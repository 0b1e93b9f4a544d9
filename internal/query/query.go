// Package query defines conjunctive queries (CQ) and unions of conjunctive
// queries (UCQ), with the classical semantic operations needed by a
// rewriting engine: canonical renaming, freezing, homomorphism-based
// containment, equivalence, and core minimization.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/logic"
)

// CQ is a conjunctive query q(x̄) :- body. The head's arguments are the
// answer (distinguished) variables — or constants; every head variable must
// occur in the body (safety).
type CQ struct {
	Head logic.Atom
	Body []logic.Atom
}

// New builds a CQ and validates safety.
func New(head logic.Atom, body []logic.Atom) (*CQ, error) {
	q := &CQ{Head: head, Body: body}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustNew is New panicking on error.
func MustNew(head logic.Atom, body []logic.Atom) *CQ {
	q, err := New(head, body)
	if err != nil {
		panic(err)
	}
	return q
}

// Validate checks the safety condition.
func (q *CQ) Validate() error {
	if len(q.Body) == 0 {
		return fmt.Errorf("query %s: empty body", q.Head.Pred)
	}
	bodyVars := make(map[logic.Term]bool)
	for _, v := range logic.VarsOf(q.Body) {
		bodyVars[v] = true
	}
	for _, t := range q.Head.Args {
		if t.IsVar() && !bodyVars[t] {
			return fmt.Errorf("query %s: head variable %v not in body", q.Head.Pred, t)
		}
		if t.IsNull() {
			return fmt.Errorf("query %s: null %v in head", q.Head.Pred, t)
		}
	}
	return nil
}

// Arity returns the number of answer positions.
func (q *CQ) Arity() int { return q.Head.Arity() }

// AnswerVars returns the distinct variables of the head in order.
func (q *CQ) AnswerVars() []logic.Term { return q.Head.Vars() }

// ExistentialVars returns the body variables that are not answer variables,
// in order of first occurrence in the body.
func (q *CQ) ExistentialVars() []logic.Term {
	ans := make(map[logic.Term]bool)
	for _, v := range q.AnswerVars() {
		ans[v] = true
	}
	var out []logic.Term
	for _, v := range logic.VarsOf(q.Body) {
		if !ans[v] {
			out = append(out, v)
		}
	}
	return out
}

// NLEVars returns the existential variables occurring in more than one body
// atom — the paper's "NLE-variables" (non-local existential). These are the
// join variables whose "splitting" the position graph tracks.
func (q *CQ) NLEVars() []logic.Term {
	count := make(map[logic.Term]int)
	for _, a := range q.Body {
		for _, v := range a.Vars() {
			count[v]++
		}
	}
	var out []logic.Term
	for _, v := range q.ExistentialVars() {
		if count[v] > 1 {
			out = append(out, v)
		}
	}
	return out
}

// Clone returns a deep copy of q.
func (q *CQ) Clone() *CQ {
	return &CQ{Head: q.Head.Clone(), Body: logic.CloneAtoms(q.Body)}
}

// Apply returns a copy of q with the substitution applied to head and body.
func (q *CQ) Apply(s logic.Subst) *CQ {
	return &CQ{Head: s.ApplyAtom(q.Head), Body: s.ApplyAtoms(q.Body)}
}

// String renders the query in surface syntax.
func (q *CQ) String() string {
	return q.Head.String() + " :- " + logic.AtomsString(q.Body) + " ."
}

// Canonical returns a copy of q whose variables are renamed V1, V2, ... in
// order of first occurrence (head first, then body). Two CQs that are equal
// up to variable renaming have identical Canonical().Key() — provided their
// atom lists are in the same order; combine with SortBody for a cheap
// syntactic dedup key (semantic dedup uses Equivalent).
func (q *CQ) Canonical() *CQ {
	// Two-phase rename: first into reserved temporaries (names with a NUL
	// byte cannot occur in input), then into V1, V2, ... . A single-phase
	// rename is unsound when the input already uses Vn names: binding
	// V1 ↦ V1 is a no-op that desynchronizes the counter, and chains like
	// X ↦ V2 ↦ V1 would alias distinct variables.
	phase1 := logic.NewSubst()
	phase2 := logic.NewSubst()
	n := 0
	fresh := func(v logic.Term) {
		if !v.IsVar() {
			return
		}
		if _, ok := phase1[v]; ok {
			return
		}
		n++
		tmp := logic.NewVar("\x00c" + strconv.Itoa(n))
		phase1.Bind(v, tmp)
		phase2.Bind(tmp, logic.NewVar("V"+strconv.Itoa(n)))
	}
	for _, t := range q.Head.Args {
		fresh(t)
	}
	for _, a := range q.Body {
		for _, t := range a.Args {
			fresh(t)
		}
	}
	return q.Apply(phase1).Apply(phase2)
}

// SortBody returns a copy of q with body atoms sorted by their Key. Used
// before Canonical to improve the hit rate of syntactic deduplication.
func (q *CQ) SortBody() *CQ {
	c := q.Clone()
	sort.Slice(c.Body, func(i, j int) bool { return c.Body[i].Key() < c.Body[j].Key() })
	return c
}

// Key returns a syntactic identity key (predicate-level; not renaming
// invariant — use DedupKey for that). Atoms are separated by NUL 0x01, which
// no atom key holds (a NUL in one is followed by a kind digit or 0xFF), so a
// name holding 0x01 cannot forge an atom boundary.
func (q *CQ) Key() string {
	var b strings.Builder
	b.WriteString(q.Head.Key())
	for _, a := range q.Body {
		b.WriteString("\x00\x01")
		b.WriteString(a.Key())
	}
	return b.String()
}

// DedupKey returns a key invariant under variable renaming and body-atom
// reordering for most queries: sort body atoms, canonically rename, sort
// again, rename again (the double pass stabilizes most permutation
// ambiguity; rare symmetric queries may still produce distinct keys, which
// only costs a semantic-equivalence check downstream — never soundness).
func (q *CQ) DedupKey() string {
	c := q.SortBody().Canonical().SortBody().Canonical()
	return c.Key()
}

// Frozen is the canonical database of a CQ: its head and body with every
// variable replaced by a distinct fresh constant.
type Frozen struct {
	Head logic.Atom
	Body []logic.Atom
}

// Freeze replaces every variable of q with a fresh constant, returning the
// frozen query (the canonical database of q). A caller testing one query
// against many freezes it once and calls Frozen.ContainedIn for each.
func (q *CQ) Freeze() Frozen {
	s := logic.NewSubst()
	i := 0
	for _, v := range logic.VarsOf(append([]logic.Atom{q.Head}, q.Body...)) {
		i++
		s.Bind(v, logic.NewConst("\x00frz"+strconv.Itoa(i)))
	}
	return Frozen{Head: s.ApplyAtom(q.Head), Body: s.ApplyAtoms(q.Body)}
}

// ContainedIn reports whether q ⊆ p: every answer of q over any database is
// an answer of p. It freezes q and calls Frozen.ContainedIn.
func (q *CQ) ContainedIn(p *CQ) bool { return q.Freeze().ContainedIn(p) }

// ContainedIn reports whether the frozen query is contained in p. This is
// the classical homomorphism criterion, and the one containment routine: it
// looks for a homomorphism from p's body into the frozen body that maps p's
// head to the frozen head.
func (f Frozen) ContainedIn(p *CQ) bool {
	if f.Head.Pred != p.Head.Pred || f.Head.Arity() != p.Arity() {
		return false
	}
	// Require the head atoms to match under the homomorphism by pinning
	// p's head arguments to the frozen head arguments.
	fixed := logic.NewSubst()
	for i, t := range p.Head.Args {
		img := f.Head.Args[i]
		switch {
		case t.IsVar():
			if prev, ok := fixed[t]; ok && prev != img {
				return false
			}
			fixed[t] = img
		case t != img:
			return false
		}
	}
	_, ok := logic.Homomorphism(p.Body, f.Body, logic.HomOptions{Fixed: fixed})
	return ok
}

// Equivalent reports whether q and p are semantically equivalent
// (containment in both directions).
func (q *CQ) Equivalent(p *CQ) bool {
	return q.ContainedIn(p) && p.ContainedIn(q)
}

// Minimize computes the core of q: a subquery with as few atoms as possible
// that is equivalent to q. It repeatedly drops redundant atoms (those whose
// removal preserves equivalence). The result is a fresh CQ; q is untouched.
func (q *CQ) Minimize() *CQ {
	cur := q.Clone()
	for {
		removed := false
		for i := 0; i < len(cur.Body); i++ {
			if len(cur.Body) == 1 {
				break
			}
			// A homomorphism from cur into the smaller query maps atom i to
			// an atom of the same predicate, so an atom whose predicate
			// occurs once cannot be dropped.
			if !predRepeats(cur.Body, i) {
				continue
			}
			cand := &CQ{Head: cur.Head, Body: removeAtom(cur.Body, i)}
			// Removing an atom can only generalize; equivalence holds iff
			// the smaller query is contained in the original.
			if safeCQ(cand) && cand.ContainedIn(cur) {
				cur = cand
				removed = true
				i--
			}
		}
		if !removed {
			return cur
		}
	}
}

// predRepeats reports whether another atom of body has the predicate of
// body[i].
func predRepeats(body []logic.Atom, i int) bool {
	for j, a := range body {
		if j != i && a.Pred == body[i].Pred {
			return true
		}
	}
	return false
}

func safeCQ(q *CQ) bool { return q.Validate() == nil }

func removeAtom(atoms []logic.Atom, i int) []logic.Atom {
	out := make([]logic.Atom, 0, len(atoms)-1)
	out = append(out, atoms[:i]...)
	out = append(out, atoms[i+1:]...)
	return out
}

// UCQ is a union of conjunctive queries of the same head predicate and
// arity.
type UCQ struct {
	CQs []*CQ
}

// NewUCQ builds a UCQ, checking that all disjuncts share predicate/arity.
func NewUCQ(cqs ...*CQ) (*UCQ, error) {
	u := &UCQ{CQs: cqs}
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return u, nil
}

// MustNewUCQ is NewUCQ panicking on error.
func MustNewUCQ(cqs ...*CQ) *UCQ {
	u, err := NewUCQ(cqs...)
	if err != nil {
		panic(err)
	}
	return u
}

// Validate checks disjunct compatibility.
func (u *UCQ) Validate() error {
	if len(u.CQs) == 0 {
		return fmt.Errorf("empty UCQ")
	}
	p, n := u.CQs[0].Head.Pred, u.CQs[0].Arity()
	for _, q := range u.CQs[1:] {
		if q.Head.Pred != p || q.Arity() != n {
			return fmt.Errorf("UCQ disjuncts disagree: %s/%d vs %s/%d",
				p, n, q.Head.Pred, q.Arity())
		}
	}
	for _, q := range u.CQs {
		if err := q.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Arity returns the common arity of the disjuncts.
func (u *UCQ) Arity() int { return u.CQs[0].Arity() }

// Len returns the number of disjuncts.
func (u *UCQ) Len() int { return len(u.CQs) }

// Prune removes disjuncts subsumed by another disjunct (q is dropped when
// q ⊆ p for some other kept p), keeping the first of equivalent pairs.
// The result is a new UCQ.
func (u *UCQ) Prune() *UCQ {
	kept := make([]*CQ, 0, len(u.CQs))
	for i, q := range u.CQs {
		subsumed := false
		for j, p := range u.CQs {
			if i == j {
				continue
			}
			if q.ContainedIn(p) {
				// Keep the earlier of an equivalent pair.
				if p.ContainedIn(q) && i < j {
					continue
				}
				subsumed = true
				break
			}
		}
		if !subsumed {
			kept = append(kept, q)
		}
	}
	return &UCQ{CQs: kept}
}

// ContainedIn reports whether u ⊆ w as UCQs: every disjunct of u is
// contained in some disjunct of w.
func (u *UCQ) ContainedIn(w *UCQ) bool {
	for _, q := range u.CQs {
		ok := false
		for _, p := range w.CQs {
			if q.ContainedIn(p) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Equivalent reports whether u and w are semantically equivalent UCQs.
func (u *UCQ) Equivalent(w *UCQ) bool {
	return u.ContainedIn(w) && w.ContainedIn(u)
}

// String renders all disjuncts, one per line.
func (u *UCQ) String() string {
	parts := make([]string, len(u.CQs))
	for i, q := range u.CQs {
		parts[i] = q.String()
	}
	return strings.Join(parts, "\n")
}

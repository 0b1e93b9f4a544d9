// Package dependency defines tuple-generating dependencies (TGDs) and rule
// sets, following the paper's terminology:
//
//   - a TGD R is  β1,...,βn → α1,...,αm  (n,m ≥ 1);
//   - the distinguished variables of R occur in both body and head;
//   - the existential body variables occur only in the body;
//   - the existential head variables occur only in the head (the "value
//     invention" positions materialized as labelled nulls by the chase);
//   - a TGD is *simple* (paper §5) when (i) no atom repeats a variable,
//     (ii) no constants occur, and (iii) the head is a single atom.
//
// The package also defines argument positions r[i] (paper Definition 2),
// which the position graph is built from.
package dependency

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/logic"
)

// TGD is a tuple-generating dependency with a non-empty body and head.
type TGD struct {
	// Label optionally names the rule (e.g. "R1"); used in diagnostics.
	Label string
	Body  []logic.Atom
	Head  []logic.Atom
}

// New constructs a TGD and validates it, returning an error if body or head
// is empty or an unsafe head variable pattern is found (heads are allowed to
// invent variables, so the only structural requirements are non-emptiness
// and positive atoms, which the types already enforce).
func New(label string, body, head []logic.Atom) (*TGD, error) {
	t := &TGD{Label: label, Body: body, Head: head}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustNew is New panicking on error; for tests and fixtures.
func MustNew(label string, body, head []logic.Atom) *TGD {
	t, err := New(label, body, head)
	if err != nil {
		panic(err)
	}
	return t
}

// Validate checks structural well-formedness.
func (t *TGD) Validate() error {
	if len(t.Body) == 0 {
		return fmt.Errorf("dependency %s: empty body", t.name())
	}
	if len(t.Head) == 0 {
		return fmt.Errorf("dependency %s: empty head", t.name())
	}
	for _, a := range append(append([]logic.Atom{}, t.Body...), t.Head...) {
		if a.Pred == "" {
			return fmt.Errorf("dependency %s: atom with empty predicate", t.name())
		}
		for _, arg := range a.Args {
			if arg.IsNull() {
				return fmt.Errorf("dependency %s: labelled null %v in rule", t.name(), arg)
			}
		}
	}
	return nil
}

func (t *TGD) name() string {
	if t.Label != "" {
		return t.Label
	}
	return "(unnamed)"
}

// BodyVars returns the distinct variables of the body in order of first
// occurrence.
func (t *TGD) BodyVars() []logic.Term { return logic.VarsOf(t.Body) }

// HeadVars returns the distinct variables of the head in order of first
// occurrence.
func (t *TGD) HeadVars() []logic.Term { return logic.VarsOf(t.Head) }

// Distinguished returns the variables occurring in both body and head
// (also called frontier variables), in body order.
func (t *TGD) Distinguished() []logic.Term {
	head := make(map[logic.Term]bool)
	for _, v := range t.HeadVars() {
		head[v] = true
	}
	var out []logic.Term
	for _, v := range t.BodyVars() {
		if head[v] {
			out = append(out, v)
		}
	}
	return out
}

// ExistentialBody returns the variables occurring only in the body.
func (t *TGD) ExistentialBody() []logic.Term {
	head := make(map[logic.Term]bool)
	for _, v := range t.HeadVars() {
		head[v] = true
	}
	var out []logic.Term
	for _, v := range t.BodyVars() {
		if !head[v] {
			out = append(out, v)
		}
	}
	return out
}

// ExistentialHead returns the variables occurring only in the head — the
// positions where the chase invents labelled nulls.
func (t *TGD) ExistentialHead() []logic.Term {
	body := make(map[logic.Term]bool)
	for _, v := range t.BodyVars() {
		body[v] = true
	}
	var out []logic.Term
	for _, v := range t.HeadVars() {
		if !body[v] {
			out = append(out, v)
		}
	}
	return out
}

// IsDistinguished reports whether v is a distinguished variable of t.
func (t *TGD) IsDistinguished(v logic.Term) bool {
	for _, d := range t.Distinguished() {
		if d == v {
			return true
		}
	}
	return false
}

// Constants returns the constants appearing anywhere in the rule, sorted.
func (t *TGD) Constants() []logic.Term {
	return logic.ConstsOf(append(append([]logic.Atom{}, t.Body...), t.Head...))
}

// SimpleViolation describes why a TGD fails the paper's "simple" conditions.
type SimpleViolation struct {
	// Condition is 1, 2 or 3 matching the paper's (i) repeated variables,
	// (ii) constants, (iii) multi-atom head.
	Condition int
	Detail    string
}

func (v SimpleViolation) String() string {
	return fmt.Sprintf("condition (%s): %s", []string{"", "i", "ii", "iii"}[v.Condition], v.Detail)
}

// SimpleViolations returns every way in which t violates the simple-TGD
// restrictions of paper §5; empty means t is simple.
func (t *TGD) SimpleViolations() []SimpleViolation {
	var out []SimpleViolation
	all := append(append([]logic.Atom{}, t.Body...), t.Head...)
	for _, a := range all {
		seen := make(map[logic.Term]bool)
		for _, arg := range a.Args {
			if arg.IsVar() {
				if seen[arg] {
					out = append(out, SimpleViolation{1, fmt.Sprintf("variable %v repeated in atom %v", arg, a)})
				}
				seen[arg] = true
			}
			if arg.IsConst() {
				out = append(out, SimpleViolation{2, fmt.Sprintf("constant %v in atom %v", arg, a)})
			}
		}
	}
	if len(t.Head) > 1 {
		out = append(out, SimpleViolation{3, fmt.Sprintf("head has %d atoms", len(t.Head))})
	}
	return out
}

// IsSimple reports whether t satisfies all three simple-TGD conditions.
func (t *TGD) IsSimple() bool { return len(t.SimpleViolations()) == 0 }

// Rename returns a copy of t with every variable replaced by a fresh
// variable from g, consistently across body and head.
func (t *TGD) Rename(g *logic.VarGen) *TGD {
	all := append(append([]logic.Atom{}, t.Body...), t.Head...)
	ren := logic.NewSubst()
	for _, v := range logic.VarsOf(all) {
		ren.Bind(v, g.FreshVar())
	}
	return &TGD{
		Label: t.Label,
		Body:  ren.ApplyAtoms(t.Body),
		Head:  ren.ApplyAtoms(t.Head),
	}
}

// Clone returns a deep copy of t.
func (t *TGD) Clone() *TGD {
	return &TGD{Label: t.Label, Body: logic.CloneAtoms(t.Body), Head: logic.CloneAtoms(t.Head)}
}

// String renders the rule in surface syntax: "body -> head .".
func (t *TGD) String() string {
	var b strings.Builder
	if t.Label != "" {
		fmt.Fprintf(&b, "%% %s\n", t.Label)
	}
	b.WriteString(logic.AtomsString(t.Body))
	b.WriteString(" -> ")
	b.WriteString(logic.AtomsString(t.Head))
	b.WriteString(" .")
	return b.String()
}

// Position identifies an argument position of a relation: Rel[Idx] with
// 1-based Idx, or the "whole relation" position Rel[ ] when Idx == 0
// (paper Definition 2 writes it r[ ]).
type Position struct {
	Rel string
	Idx int
}

// Generic reports whether p is of the form r[ ].
func (p Position) Generic() bool { return p.Idx == 0 }

// String renders r[i] or r[ ].
func (p Position) String() string {
	if p.Generic() {
		return p.Rel + "[ ]"
	}
	return fmt.Sprintf("%s[%d]", p.Rel, p.Idx)
}

// PosOf returns the position r[i] of the first occurrence of term x in atom
// a (paper's Pos(x, β); unique when the rule is simple), and false if x does
// not occur.
func PosOf(x logic.Term, a logic.Atom) (Position, bool) {
	for i, t := range a.Args {
		if t == x {
			return Position{Rel: a.Pred, Idx: i + 1}, true
		}
	}
	return Position{}, false
}

// AllPosOf returns every position of x in a (needed for non-simple rules
// where a variable may repeat).
func AllPosOf(x logic.Term, a logic.Atom) []Position {
	var out []Position
	for i, t := range a.Args {
		if t == x {
			out = append(out, Position{Rel: a.Pred, Idx: i + 1})
		}
	}
	return out
}

// Set is an ordered collection of TGDs with a derived signature.
type Set struct {
	Rules []*TGD
}

// NewSet builds a Set from rules, assigning labels R1, R2, ... to unlabeled
// rules, and validates each rule.
func NewSet(rules ...*TGD) (*Set, error) {
	s := &Set{Rules: rules}
	for i, r := range rules {
		if r.Label == "" {
			r.Label = fmt.Sprintf("R%d", i+1)
		}
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustNewSet is NewSet panicking on error.
func MustNewSet(rules ...*TGD) *Set {
	s, err := NewSet(rules...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of rules.
func (s *Set) Len() int { return len(s.Rules) }

// IndexOfLabel returns the index of the rule with the given label, or -1.
func (s *Set) IndexOfLabel(label string) int {
	for i, r := range s.Rules {
		if r.Label == label {
			return i
		}
	}
	return -1
}

// WithRule returns a new Set with r appended, leaving the receiver
// untouched. The surviving rules are shared by pointer, so rule identity —
// the *TGD and its label — is stable across mutations and anything keyed on
// it (compiled plans, the chase's null table) stays valid. If r's
// label is empty or already taken, a fresh unused "R<n>" label is assigned.
// The rule is validated, including arity consistency against the set's
// derived signature.
func (s *Set) WithRule(r *TGD) (*Set, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	taken := make(map[string]bool, len(s.Rules))
	for _, x := range s.Rules {
		taken[x.Label] = true
	}
	if r.Label == "" || taken[r.Label] {
		for n := len(s.Rules) + 1; ; n++ {
			if l := fmt.Sprintf("R%d", n); !taken[l] {
				r.Label = l
				break
			}
		}
	}
	ns := &Set{Rules: append(s.Rules[:len(s.Rules):len(s.Rules)], r)}
	if _, err := ns.Predicates(); err != nil {
		return nil, err
	}
	return ns, nil
}

// WithoutRule returns a new Set with the rule at index i removed, leaving
// the receiver untouched. Surviving rules are shared by pointer (stable
// identity); only their indices shift, so state keyed by rule identity
// (chase.State's null table) needs no remap.
func (s *Set) WithoutRule(i int) (*Set, error) {
	if i < 0 || i >= len(s.Rules) {
		return nil, fmt.Errorf("dependency: rule index %d out of range [0,%d)", i, len(s.Rules))
	}
	rules := make([]*TGD, 0, len(s.Rules)-1)
	rules = append(rules, s.Rules[:i]...)
	rules = append(rules, s.Rules[i+1:]...)
	return &Set{Rules: rules}, nil
}

// IsSimple reports whether every rule in the set is simple.
func (s *Set) IsSimple() bool {
	for _, r := range s.Rules {
		if !r.IsSimple() {
			return false
		}
	}
	return true
}

// Predicates returns the signature: predicate name → arity, derived from
// every atom in the set. Conflicting arities return an error.
func (s *Set) Predicates() (map[string]int, error) {
	sig := make(map[string]int)
	for _, r := range s.Rules {
		for _, a := range append(append([]logic.Atom{}, r.Body...), r.Head...) {
			if prev, ok := sig[a.Pred]; ok && prev != a.Arity() {
				return nil, fmt.Errorf("predicate %s used with arities %d and %d", a.Pred, prev, a.Arity())
			}
			sig[a.Pred] = a.Arity()
		}
	}
	return sig, nil
}

// MaxArity returns the maximum predicate arity in the set (0 if empty).
func (s *Set) MaxArity() int {
	max := 0
	for _, r := range s.Rules {
		for _, a := range append(append([]logic.Atom{}, r.Body...), r.Head...) {
			if a.Arity() > max {
				max = a.Arity()
			}
		}
	}
	return max
}

// Constants returns all constants in the set, sorted by name.
func (s *Set) Constants() []logic.Term {
	seen := make(map[logic.Term]bool)
	var out []logic.Term
	for _, r := range s.Rules {
		for _, c := range r.Constants() {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// HeadPredicates returns the distinct predicates occurring in rule heads,
// sorted (these are the "intensional" predicates the rewriting can expand).
func (s *Set) HeadPredicates() []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range s.Rules {
		for _, a := range r.Head {
			if !seen[a.Pred] {
				seen[a.Pred] = true
				out = append(out, a.Pred)
			}
		}
	}
	sort.Strings(out)
	return out
}

// String renders all rules, one per line.
func (s *Set) String() string {
	parts := make([]string, len(s.Rules))
	for i, r := range s.Rules {
		parts[i] = logic.AtomsString(r.Body) + " -> " + logic.AtomsString(r.Head) + " ."
	}
	return strings.Join(parts, "\n")
}

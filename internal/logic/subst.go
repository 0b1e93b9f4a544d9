package logic

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Subst is a substitution: a finite mapping from variables to terms.
// Bindings may chain (X ↦ Y, Y ↦ c); Apply resolves chains fully.
// Only variables may appear as keys.
type Subst map[Term]Term

// NewSubst returns an empty substitution.
func NewSubst() Subst { return make(Subst) }

// Bind records v ↦ t, panicking if v is not a variable. Binding a variable
// to itself is a no-op.
func (s Subst) Bind(v, t Term) {
	if !v.IsVar() {
		panic(fmt.Sprintf("logic: cannot bind non-variable %v", v))
	}
	if v == t {
		return
	}
	s[v] = t
}

// Walk resolves a single binding step chain: it follows bindings from t until
// reaching a term that is unbound or rigid. It does not recurse into
// structure (terms are flat).
func (s Subst) Walk(t Term) Term {
	for t.IsVar() {
		next, ok := s[t]
		if !ok {
			return t
		}
		t = next
	}
	return t
}

// Apply returns the image of t under the substitution, resolving binding
// chains fully.
func (s Subst) Apply(t Term) Term { return s.Walk(t) }

// ApplyAtom returns a copy of a with the substitution applied to every
// argument.
func (s Subst) ApplyAtom(a Atom) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = s.Walk(t)
	}
	return Atom{Pred: a.Pred, Args: args}
}

// ApplyAtoms maps ApplyAtom over a slice of atoms.
func (s Subst) ApplyAtoms(atoms []Atom) []Atom {
	out := make([]Atom, len(atoms))
	for i, a := range atoms {
		out[i] = s.ApplyAtom(a)
	}
	return out
}

// Clone returns an independent copy of the substitution.
func (s Subst) Clone() Subst {
	out := make(Subst, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Compose returns the substitution equivalent to applying s first and then
// t: (s;t)(x) = t(s(x)). Bindings of t for variables not bound by s are kept.
func (s Subst) Compose(t Subst) Subst {
	out := make(Subst, len(s)+len(t))
	for v := range s {
		out[v] = t.Walk(s.Walk(v))
	}
	for v := range t {
		if _, ok := out[v]; !ok {
			out[v] = t.Walk(v)
		}
	}
	for v, img := range out {
		if v == img {
			delete(out, v)
		}
	}
	return out
}

// Restrict returns the restriction of s to the given variables (resolving
// chains fully).
func (s Subst) Restrict(vars []Term) Subst {
	out := make(Subst, len(vars))
	for _, v := range vars {
		if img := s.Walk(v); img != v {
			out[v] = img
		}
	}
	return out
}

// String renders the substitution deterministically, e.g. {X↦a, Y↦Z}.
func (s Subst) String() string {
	keys := make([]Term, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Name < keys[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%v->%v", k, s.Walk(k))
	}
	b.WriteByte('}')
	return b.String()
}

// VarGen generates fresh variables and nulls that cannot collide with any
// parser-produced name (generated names contain '#', which the lexer
// rejects).
type VarGen struct {
	prefix string
	n      int
}

// NewVarGen returns a generator whose names carry the given prefix.
func NewVarGen(prefix string) *VarGen { return &VarGen{prefix: prefix} }

// FreshVar returns a fresh variable, distinct from all earlier ones.
func (g *VarGen) FreshVar() Term { return NewVar(g.next()) }

// FreshNull returns a fresh labelled null, distinct from all earlier ones.
func (g *VarGen) FreshNull() Term { return NewNull(g.next()) }

// next counts one more fresh term and returns its name, prefix#n.
func (g *VarGen) next() string {
	g.n++
	var buf [32]byte
	b := append(append(buf[:0], g.prefix...), '#')
	return string(strconv.AppendInt(b, int64(g.n), 10))
}

// Count returns how many fresh terms have been generated.
func (g *VarGen) Count() int { return g.n }

// RenameApart returns a copy of atoms in which every variable has been
// replaced by a fresh variable from g, together with the renaming used.
// Distinct occurrences of the same variable are renamed consistently.
func RenameApart(atoms []Atom, g *VarGen) ([]Atom, Subst) {
	ren := NewSubst()
	for _, v := range VarsOf(atoms) {
		ren.Bind(v, g.FreshVar())
	}
	return ren.ApplyAtoms(atoms), ren
}

// Package logic provides the symbolic kernel of the system: terms
// (constants, variables and labelled nulls), atoms, substitutions,
// most-general unifiers and homomorphism search.
//
// Every higher layer — TGDs, conjunctive queries, the chase, the rewriting
// engine and the paper's position/P-node graphs — is built on the types in
// this package. Terms are small comparable value types so they can be used
// directly as map keys; atoms are predicate + argument slices with a stable
// canonical encoding used for hashing and deduplication.
package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates the three sorts of terms in the language.
type Kind uint8

const (
	// Const is a constant symbol (interpreted under the Unique Name
	// Assumption: distinct constants denote distinct domain elements).
	Const Kind = iota
	// Var is a first-order variable.
	Var
	// Null is a labelled null, i.e. a fresh value invented by the chase
	// for an existential head variable. Nulls behave like constants for
	// unification purposes but are filtered out of certain answers.
	Null
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Const:
		return "const"
	case Var:
		return "var"
	case Null:
		return "null"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Term is a constant, variable or labelled null. The zero value is the
// constant with the empty name, which is never produced by the parser; code
// may use the zero Term as an "absent" sentinel.
//
// Term is a comparable value type: two Terms are identical iff both Kind and
// Name match, so Terms can key maps and be compared with ==.
type Term struct {
	Kind Kind
	Name string
}

// NewConst returns the constant term with the given name.
func NewConst(name string) Term { return Term{Kind: Const, Name: name} }

// NewVar returns the variable term with the given name.
func NewVar(name string) Term { return Term{Kind: Var, Name: name} }

// NewNull returns the labelled null with the given label.
func NewNull(label string) Term { return Term{Kind: Null, Name: label} }

// IsConst reports whether t is a constant.
func (t Term) IsConst() bool { return t.Kind == Const }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.Kind == Var }

// IsNull reports whether t is a labelled null.
func (t Term) IsNull() bool { return t.Kind == Null }

// IsRigid reports whether t is a constant or a null, i.e. a term that cannot
// be bound by a substitution.
func (t Term) IsRigid() bool { return t.Kind != Var }

// String renders the term in surface syntax: variables verbatim, nulls with
// a "_:" prefix, and constants bare when the parser's lexer reads them back
// as one constant token, quoted otherwise — so a printed query re-parses to
// the same query.
func (t Term) String() string {
	switch t.Kind {
	case Var:
		return t.Name
	case Null:
		return "_:" + t.Name
	default:
		if isPlainConstName(t.Name) {
			return t.Name
		}
		return quoteConst(t.Name)
	}
}

// isPlainConstName reports whether name lexes back as one constant token
// when printed bare: a number (ASCII digits only) or an identifier (a
// lowercase ASCII letter, then ASCII letters, digits and '_'). Anything else
// — `0A` lexes as the number 0 then the variable A — must be quoted.
func isPlainConstName(name string) bool {
	if name == "" {
		return false
	}
	digits := name[0] >= '0' && name[0] <= '9'
	if !digits && (name[0] < 'a' || name[0] > 'z') {
		return false
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= '0' && c <= '9':
		case digits:
			return false
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		default:
			return false
		}
	}
	return true
}

// quoteConst renders name as a string literal in the lexer's escape syntax:
// only '"', '\\', newline and tab are escaped, every other byte is written
// as is (the lexer reads string bodies byte by byte).
func quoteConst(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 2)
	b.WriteByte('"')
	for i := 0; i < len(name); i++ {
		switch c := name[i]; c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Atom is a predicate applied to a list of terms, e.g. parent(X, "bob").
// The zero value has an empty predicate and nil arguments and is invalid.
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom builds an atom from a predicate name and arguments.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// Clone returns a deep copy of the atom (the argument slice is copied).
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args}
}

// Equal reports whether a and b are syntactically identical.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Vars returns the distinct variables of the atom in order of first
// occurrence.
func (a Atom) Vars() []Term {
	var out []Term
	seen := make(map[Term]bool, len(a.Args))
	for _, t := range a.Args {
		if t.IsVar() && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// HasVar reports whether v occurs among the atom's arguments.
func (a Atom) HasVar(v Term) bool {
	for _, t := range a.Args {
		if t == v {
			return true
		}
	}
	return false
}

// Positions returns the 1-based argument positions at which term t occurs.
func (a Atom) Positions(t Term) []int {
	var out []int
	for i, u := range a.Args {
		if u == t {
			out = append(out, i+1)
		}
	}
	return out
}

// Key returns a canonical string encoding of the atom, unique per atom up to
// syntactic identity. It is used as a map key for fact and atom sets.
//
// The encoding is the predicate, then per argument a NUL byte, the kind digit
// and the name. A NUL byte inside the predicate or a name is written as NUL
// 0xFF: a separating NUL is always followed by a kind digit, so the encoding
// stays injective whatever bytes names hold. For NUL-free names the key is
// exactly the unescaped layout, and keys of one predicate sort as their
// argument lists do, term by term on (kind, name).
func (a Atom) Key() string {
	n := len(a.Pred) + 2*len(a.Args)
	plain := strings.IndexByte(a.Pred, 0) < 0
	for _, t := range a.Args {
		n += len(t.Name)
		plain = plain && strings.IndexByte(t.Name, 0) < 0
	}
	if !plain {
		return a.escapedKey()
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(a.Pred)
	for _, t := range a.Args {
		b.WriteByte(0)
		b.WriteByte(byte('0') + byte(t.Kind))
		b.WriteString(t.Name)
	}
	return b.String()
}

// escapedKey is Key for an atom whose predicate or names hold a NUL byte.
func (a Atom) escapedKey() string {
	var b strings.Builder
	writeEscaped(&b, a.Pred)
	for _, t := range a.Args {
		b.WriteByte(0)
		b.WriteByte(byte('0') + byte(t.Kind))
		writeEscaped(&b, t.Name)
	}
	return b.String()
}

// writeEscaped writes s with every NUL byte escaped as NUL 0xFF.
func writeEscaped(b *strings.Builder, s string) {
	for {
		i := strings.IndexByte(s, 0)
		if i < 0 {
			b.WriteString(s)
			return
		}
		b.WriteString(s[:i+1])
		b.WriteByte(0xFF)
		s = s[i+1:]
	}
}

// String renders the atom in surface syntax, e.g. `parent(X, "bob")`.
func (a Atom) String() string {
	var b strings.Builder
	b.WriteString(a.Pred)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}

// AtomsString renders a conjunction of atoms separated by commas.
func AtomsString(atoms []Atom) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// VarsOf returns the distinct variables occurring in atoms, in order of
// first occurrence.
func VarsOf(atoms []Atom) []Term {
	var out []Term
	seen := make(map[Term]bool)
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() && !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// ConstsOf returns the distinct constants occurring in atoms, sorted by name.
func ConstsOf(atoms []Atom) []Term {
	seen := make(map[Term]bool)
	var out []Term
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsConst() && !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CloneAtoms deep-copies a slice of atoms.
func CloneAtoms(atoms []Atom) []Atom {
	out := make([]Atom, len(atoms))
	for i, a := range atoms {
		out[i] = a.Clone()
	}
	return out
}

// AtomSet is a deduplicated set of atoms keyed by Atom.Key.
type AtomSet struct {
	m     map[string]Atom
	order []string
}

// NewAtomSet returns an empty atom set.
func NewAtomSet() *AtomSet { return &AtomSet{m: make(map[string]Atom)} }

// Add inserts a into the set, reporting whether it was not already present.
func (s *AtomSet) Add(a Atom) bool {
	k := a.Key()
	if _, ok := s.m[k]; ok {
		return false
	}
	s.m[k] = a
	s.order = append(s.order, k)
	return true
}

// Contains reports whether a is in the set.
func (s *AtomSet) Contains(a Atom) bool {
	_, ok := s.m[a.Key()]
	return ok
}

// Len returns the number of atoms in the set.
func (s *AtomSet) Len() int { return len(s.m) }

// Slice returns the atoms in insertion order.
func (s *AtomSet) Slice() []Atom {
	out := make([]Atom, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, s.m[k])
	}
	return out
}

package logic

import (
	"testing"
	"testing/quick"
)

func TestTermKinds(t *testing.T) {
	c := NewConst("a")
	v := NewVar("X")
	n := NewNull("n1")
	if !c.IsConst() || c.IsVar() || c.IsNull() {
		t.Errorf("constant kind predicates wrong: %+v", c)
	}
	if !v.IsVar() || v.IsConst() || v.IsRigid() {
		t.Errorf("variable kind predicates wrong: %+v", v)
	}
	if !n.IsNull() || !n.IsRigid() {
		t.Errorf("null kind predicates wrong: %+v", n)
	}
}

func TestTermComparable(t *testing.T) {
	if NewConst("a") != NewConst("a") {
		t.Error("identical constants must be ==")
	}
	if NewConst("a") == NewVar("a") {
		t.Error("constant and variable with same name must differ")
	}
	m := map[Term]int{NewVar("X"): 1}
	if m[NewVar("X")] != 1 {
		t.Error("terms must work as map keys")
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewConst("abc"), "abc"},
		{NewConst("a_b1"), "a_b1"},
		{NewConst("Hello World"), `"Hello World"`},
		{NewConst(""), `""`},
		{NewConst("42"), "42"},
		{NewVar("X"), "X"},
		{NewNull("n3"), "_:n3"},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestAtomBasics(t *testing.T) {
	a := NewAtom("r", NewVar("X"), NewConst("a"), NewVar("X"))
	if a.Arity() != 3 {
		t.Fatalf("arity = %d, want 3", a.Arity())
	}
	if a.IsGround() {
		t.Error("atom with variables must not be ground")
	}
	if got := a.Vars(); len(got) != 1 || got[0] != NewVar("X") {
		t.Errorf("Vars = %v, want [X]", got)
	}
	if !a.HasVar(NewVar("X")) || a.HasVar(NewVar("Y")) {
		t.Error("HasVar wrong")
	}
	if got := a.Positions(NewVar("X")); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Positions = %v, want [1 3]", got)
	}
	g := NewAtom("r", NewConst("a"), NewNull("n"))
	if !g.IsGround() {
		t.Error("atom of constants and nulls is ground")
	}
}

func TestAtomCloneIndependent(t *testing.T) {
	a := NewAtom("r", NewVar("X"))
	b := a.Clone()
	b.Args[0] = NewConst("c")
	if a.Args[0] != NewVar("X") {
		t.Error("Clone must copy the argument slice")
	}
}

func TestAtomEqualAndKey(t *testing.T) {
	a := NewAtom("r", NewVar("X"), NewConst("a"))
	b := NewAtom("r", NewVar("X"), NewConst("a"))
	c := NewAtom("r", NewConst("X"), NewConst("a")) // constant named X
	if !a.Equal(b) {
		t.Error("identical atoms must be Equal")
	}
	if a.Equal(c) {
		t.Error("var X and const X must not be Equal")
	}
	if a.Key() != b.Key() {
		t.Error("equal atoms must share Key")
	}
	if a.Key() == c.Key() {
		t.Error("different atoms must have distinct Key")
	}
	if NewAtom("r").Key() == NewAtom("r", NewConst("")).Key() {
		t.Error("arity must be reflected in Key")
	}
}

func TestAtomKeyInjectiveProperty(t *testing.T) {
	// Property: Key collides only for Equal atoms, over random small atoms.
	f := func(p uint8, k1, k2 uint8, n1, n2 string) bool {
		mk := func(k uint8, n string) Term {
			return Term{Kind: Kind(k % 3), Name: n}
		}
		a := NewAtom("p", mk(k1, n1))
		b := NewAtom("p", mk(k2, n2))
		return a.Equal(b) == (a.Key() == b.Key())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAtomKeyInjectiveWithNULs: names and predicates may hold NUL bytes,
// the key's own separator. Over every binary atom built from a small
// NUL-heavy alphabet, two keys are equal only for equal atoms; NUL-free atoms
// keep the unescaped layout, whose order Key's callers sort by.
func TestAtomKeyInjectiveWithNULs(t *testing.T) {
	names := []string{"", "\x00", "0", "a", "\x000", "a\x00", "a\x000b", "b\x000c", "\x00\xff", "\xff"}
	var atoms []Atom
	for _, p := range []string{"p", "p\x000"} {
		for _, x := range names {
			for _, y := range names {
				for k := Kind(0); k < 3; k += 2 {
					atoms = append(atoms, NewAtom(p, Term{Kind: k, Name: x}, NewConst(y)))
				}
			}
		}
	}
	seen := make(map[string]Atom, len(atoms))
	for _, a := range atoms {
		if b, ok := seen[a.Key()]; ok {
			t.Fatalf("%q and %q share the key %q", a, b, a.Key())
		}
		seen[a.Key()] = a
	}
	if got := NewAtom("p", NewConst("a"), NewNull("b")).Key(); got != "p\x000a\x002b" {
		t.Errorf("Key = %q, want the unescaped layout", got)
	}
}

func TestAtomString(t *testing.T) {
	a := NewAtom("parent", NewVar("X"), NewConst("bob"))
	if got := a.String(); got != "parent(X, bob)" {
		t.Errorf("String = %q", got)
	}
	if got := AtomsString([]Atom{a, NewAtom("q")}); got != "parent(X, bob), q()" {
		t.Errorf("AtomsString = %q", got)
	}
}

func TestVarsOfAndConstsOf(t *testing.T) {
	atoms := []Atom{
		NewAtom("r", NewVar("Y"), NewConst("b")),
		NewAtom("s", NewVar("X"), NewVar("Y"), NewConst("a")),
	}
	vars := VarsOf(atoms)
	if len(vars) != 2 || vars[0] != NewVar("Y") || vars[1] != NewVar("X") {
		t.Errorf("VarsOf = %v", vars)
	}
	consts := ConstsOf(atoms)
	if len(consts) != 2 || consts[0] != NewConst("a") || consts[1] != NewConst("b") {
		t.Errorf("ConstsOf = %v (want sorted a,b)", consts)
	}
}

func TestAtomSet(t *testing.T) {
	s := NewAtomSet()
	a := NewAtom("r", NewConst("a"))
	if !s.Add(a) {
		t.Error("first Add must report true")
	}
	if s.Add(a) {
		t.Error("duplicate Add must report false")
	}
	if !s.Contains(a) || s.Len() != 1 {
		t.Error("Contains/Len wrong")
	}
	b := NewAtom("r", NewConst("b"))
	s.Add(b)
	sl := s.Slice()
	if len(sl) != 2 || !sl[0].Equal(a) || !sl[1].Equal(b) {
		t.Errorf("Slice must preserve insertion order, got %v", sl)
	}
}

func TestCloneAtoms(t *testing.T) {
	atoms := []Atom{NewAtom("r", NewVar("X"))}
	cp := CloneAtoms(atoms)
	cp[0].Args[0] = NewConst("c")
	if atoms[0].Args[0] != NewVar("X") {
		t.Error("CloneAtoms must deep-copy")
	}
}

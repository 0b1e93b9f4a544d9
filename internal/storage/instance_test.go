package storage

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

func c(n string) logic.Term { return logic.NewConst(n) }

func TestRelationInsertDedup(t *testing.T) {
	r := NewRelation("r", 2)
	if !r.Insert(Tuple{c("a"), c("b")}) {
		t.Error("first insert must be new")
	}
	if r.Insert(Tuple{c("a"), c("b")}) {
		t.Error("duplicate insert must report false")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if !r.Contains(Tuple{c("a"), c("b")}) || r.Contains(Tuple{c("b"), c("a")}) {
		t.Error("Contains wrong")
	}
}

func TestRelationArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch must panic")
		}
	}()
	NewRelation("r", 2).Insert(Tuple{c("a")})
}

func TestRelationLookup(t *testing.T) {
	r := NewRelation("r", 2)
	r.Insert(Tuple{c("a"), c("b")})
	r.Insert(Tuple{c("a"), c("c")})
	r.Insert(Tuple{c("d"), c("b")})
	if got := r.Lookup(0, c("a")); len(got) != 2 {
		t.Errorf("Lookup(0,a) = %v, want 2 offsets", got)
	}
	if got := r.Lookup(1, c("b")); len(got) != 2 {
		t.Errorf("Lookup(1,b) = %v, want 2 offsets", got)
	}
	if got := r.Lookup(0, c("z")); len(got) != 0 {
		t.Errorf("Lookup(0,z) = %v, want empty", got)
	}
	// Insert after index build must keep the index current.
	r.Insert(Tuple{c("a"), c("z")})
	if got := r.Lookup(0, c("a")); len(got) != 3 {
		t.Errorf("Lookup after post-index insert = %v, want 3", got)
	}
}

func TestTupleHasNullAndKey(t *testing.T) {
	withNull := Tuple{c("a"), logic.NewNull("n1")}
	if !withNull.HasNull() {
		t.Error("HasNull must detect nulls")
	}
	if (Tuple{c("a")}).HasNull() {
		t.Error("constant tuple has no null")
	}
	// Key distinguishes a constant from a null of the same name.
	if (Tuple{c("n1")}).Key() == (Tuple{logic.NewNull("n1")}).Key() {
		t.Error("Key must distinguish kinds")
	}
}

func TestInstanceInsertAndContains(t *testing.T) {
	ins := NewInstance()
	a := logic.NewAtom("p", c("x"), c("y"))
	added, err := ins.Insert(a)
	if err != nil || !added {
		t.Fatalf("Insert = %v, %v", added, err)
	}
	if added, _ := ins.Insert(a); added {
		t.Error("duplicate must not be new")
	}
	if !ins.ContainsAtom(a) {
		t.Error("ContainsAtom must find inserted atom")
	}
	if ins.ContainsAtom(logic.NewAtom("p", c("x"))) {
		t.Error("wrong arity must not be contained")
	}
	if ins.Size() != 1 {
		t.Errorf("Size = %d", ins.Size())
	}
}

func TestInstanceArityConflict(t *testing.T) {
	ins := NewInstance()
	if err := ins.InsertAtom(logic.NewAtom("p", c("x"))); err != nil {
		t.Fatal(err)
	}
	if err := ins.InsertAtom(logic.NewAtom("p", c("x"), c("y"))); err == nil {
		t.Error("arity conflict must error")
	}
}

func TestFromAtomsRejectsVariables(t *testing.T) {
	if _, err := FromAtoms([]logic.Atom{logic.NewAtom("p", logic.NewVar("X"))}); err == nil {
		t.Error("non-ground atom must be rejected")
	}
}

func TestInstanceAtomsSortedAndClone(t *testing.T) {
	ins := MustFromAtoms([]logic.Atom{
		logic.NewAtom("q", c("z")),
		logic.NewAtom("p", c("a"), c("b")),
	})
	atoms := ins.Atoms()
	if len(atoms) != 2 || atoms[0].Pred != "p" || atoms[1].Pred != "q" {
		t.Errorf("Atoms = %v, want p before q", atoms)
	}
	cl := ins.Clone()
	cl.InsertAtom(logic.NewAtom("q", c("w")))
	if ins.Size() != 2 || cl.Size() != 3 {
		t.Error("Clone must be independent")
	}
	preds := ins.Predicates()
	if len(preds) != 2 || preds[0] != "p" || preds[1] != "q" {
		t.Errorf("Predicates = %v", preds)
	}
}

func TestInstanceString(t *testing.T) {
	ins := MustFromAtoms([]logic.Atom{logic.NewAtom("p", c("a"))})
	if got := ins.String(); !strings.Contains(got, "p(a) .") {
		t.Errorf("String = %q", got)
	}
}

func TestClonePreservesIndexes(t *testing.T) {
	ins := MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", c("a"), c("b")),
		logic.NewAtom("p", c("a"), c("c")),
		logic.NewAtom("p", c("d"), c("b")),
	})
	ins.EnsureIndexes()
	cl := ins.Clone()
	r := cl.Relation("p")
	if r.index == nil {
		t.Fatal("Clone must carry over built indexes")
	}
	if got := r.Lookup(0, c("a")); len(got) != 2 {
		t.Errorf("cloned Lookup(0,a) = %v, want 2 offsets", got)
	}
	// Inserting into the clone must maintain its index without touching the
	// original's posting lists.
	cl.InsertAtom(logic.NewAtom("p", c("a"), c("e")))
	if got := cl.Relation("p").Lookup(0, c("a")); len(got) != 3 {
		t.Errorf("post-insert cloned Lookup(0,a) = %v, want 3 offsets", got)
	}
	if got := ins.Relation("p").Lookup(0, c("a")); len(got) != 2 {
		t.Errorf("original Lookup(0,a) = %v, want 2 offsets (aliasing)", got)
	}
	// EnsureIndex on the clone must not discard the carried-over index.
	cl.Relation("p").EnsureIndex()
	if got := cl.Relation("p").Lookup(1, c("e")); len(got) != 1 {
		t.Errorf("Lookup(1,e) = %v, want 1 offset", got)
	}
}

func TestRelationRemoveMaintainsIndex(t *testing.T) {
	ins := MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", c("a"), c("b")),
		logic.NewAtom("p", c("a"), c("c")),
		logic.NewAtom("p", c("d"), c("b")),
		logic.NewAtom("p", c("e"), c("e")),
	})
	ins.EnsureIndexes()
	r := ins.Relation("p")
	if !ins.Remove(logic.NewAtom("p", c("a"), c("b"))) {
		t.Fatal("remove of a present tuple must report true")
	}
	if ins.Remove(logic.NewAtom("p", c("a"), c("b"))) {
		t.Fatal("second remove must be a no-op")
	}
	if r.Len() != 3 || r.Contains(Tuple{c("a"), c("b")}) {
		t.Fatalf("len=%d after remove", r.Len())
	}
	// The index must agree with a fresh scan after the swap-removal: every
	// surviving tuple reachable at its new offset, nothing dangling.
	for _, col := range []int{0, 1} {
		for _, tup := range r.Tuples() {
			found := false
			for _, off := range r.Lookup(col, tup[col]) {
				if off < 0 || off >= r.Len() {
					t.Fatalf("dangling offset %d in Lookup(%d,%v)", off, col, tup[col])
				}
				if r.Tuples()[off][col] == tup[col] {
					found = true
				}
			}
			if !found {
				t.Errorf("tuple %v unreachable via Lookup(%d,%v)", tup, col, tup[col])
			}
		}
	}
	if got := r.Lookup(0, c("a")); len(got) != 1 {
		t.Errorf("Lookup(0,a) = %v, want 1 offset", got)
	}
	if got := r.Lookup(1, c("b")); len(got) != 1 {
		t.Errorf("Lookup(1,b) = %v, want 1 offset", got)
	}
	// Removing a tuple with a repeated term exercises per-column postings.
	if !ins.Remove(logic.NewAtom("p", c("e"), c("e"))) {
		t.Fatal("remove e,e")
	}
	if got := r.Lookup(0, c("e")); len(got) != 0 {
		t.Errorf("Lookup(0,e) = %v, want empty", got)
	}
}

func TestExtendCloneCopyOnWrite(t *testing.T) {
	parent := MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", c("a")),
		logic.NewAtom("q", c("b"), c("c")),
	})
	parent.EnsureIndexes()
	cl := parent.ExtendClone()
	// Untouched relations are aliased, not copied.
	if cl.Relation("q") != parent.Relation("q") {
		t.Fatal("ExtendClone must alias untouched relations")
	}
	// Duplicate insert into a shared relation must not trigger a copy.
	if added, err := cl.Insert(logic.NewAtom("p", c("a"))); added || err != nil {
		t.Fatalf("dup insert: added=%v err=%v", added, err)
	}
	if cl.Relation("p") != parent.Relation("p") {
		t.Fatal("duplicate insert must not copy the shared relation")
	}
	// A genuine insert copies just that relation.
	if added, _ := cl.Insert(logic.NewAtom("p", c("z"))); !added {
		t.Fatal("insert z")
	}
	if cl.Relation("p") == parent.Relation("p") {
		t.Fatal("mutating insert must copy the shared relation")
	}
	if cl.Relation("q") != parent.Relation("q") {
		t.Fatal("q must stay aliased")
	}
	if parent.Relation("p").Contains(Tuple{c("z")}) {
		t.Fatal("parent must not see the clone's insert")
	}
	// Removals copy-on-write the same way.
	cl2 := parent.ExtendClone()
	if cl2.Remove(logic.NewAtom("q", c("x"), c("y"))) {
		t.Fatal("absent removal must report false")
	}
	if cl2.Relation("q") != parent.Relation("q") {
		t.Fatal("absent removal must not copy")
	}
	if !cl2.Remove(logic.NewAtom("q", c("b"), c("c"))) {
		t.Fatal("remove b,c")
	}
	if !parent.Relation("q").Contains(Tuple{c("b"), c("c")}) {
		t.Fatal("parent must not see the clone's removal")
	}
	if cl2.Size() != parent.Size()-1 {
		t.Errorf("sizes: clone %d parent %d", cl2.Size(), parent.Size())
	}
	// The parent is frozen now; a deep Clone of it is writable again.
	if added, err := parent.Clone().Insert(logic.NewAtom("p", c("y"))); !added || err != nil {
		t.Errorf("insert into a Clone of a frozen instance: added=%v err=%v", added, err)
	}
}

func TestCloneBuildsIndexForRaceSafety(t *testing.T) {
	// Clone synchronizes with concurrent lazy index builds by building the
	// index itself (EnsureIndex) before copying it: the clone of an
	// unindexed relation therefore arrives indexed, and so does the source.
	ins := MustFromAtoms([]logic.Atom{logic.NewAtom("p", c("a"))})
	cl := ins.Clone()
	if cl.Relation("p").index == nil || ins.Relation("p").index == nil {
		t.Fatal("Clone must leave both source and copy indexed")
	}
	if got := cl.Relation("p").Lookup(0, c("a")); len(got) != 1 {
		t.Errorf("Lookup after Clone = %v", got)
	}
	if !cl.Relation("p").Contains(Tuple{c("a")}) {
		t.Error("cloned key map must answer Contains")
	}
}

func TestRelationStats(t *testing.T) {
	r := NewRelation("r", 2)
	r.Insert(Tuple{c("a"), c("x")})
	r.Insert(Tuple{c("a"), c("y")})
	r.Insert(Tuple{c("b"), c("x")})
	if r.Distinct(0) != 2 || r.Distinct(1) != 2 {
		t.Errorf("Distinct = %d,%d", r.Distinct(0), r.Distinct(1))
	}
	// Incremental maintenance: inserts after the index is built keep the
	// counts current, and removals drop a term once its postings empty.
	r.Insert(Tuple{c("c"), c("x")})
	if r.Distinct(0) != 3 {
		t.Errorf("Distinct(0) after insert = %d, want 3", r.Distinct(0))
	}
	r.Remove(Tuple{c("b"), c("x")})
	if r.Distinct(0) != 2 {
		t.Errorf("Distinct(0) after remove = %d, want 2", r.Distinct(0))
	}
	if r.Distinct(1) != 2 {
		t.Errorf("Distinct(1) after remove = %d, want 2 (x still posted by a,c)", r.Distinct(1))
	}
	r.Remove(Tuple{c("a"), c("y")})
	if r.Distinct(1) != 1 {
		t.Errorf("Distinct(1) after second remove = %d, want 1", r.Distinct(1))
	}
}

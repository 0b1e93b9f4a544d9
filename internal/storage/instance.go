// Package storage implements the in-memory relational substrate: database
// instances made of relations over terms (constants and, during the chase,
// labelled nulls), with per-column hash indexes for evaluation.
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/logic"
)

// Tuple is one row of a relation.
type Tuple []logic.Term

// Key returns a canonical, injective encoding of the tuple for dedup: the
// key of an atom with an empty predicate (logic.Atom.Key), built in one
// pre-sized pass (it is hashed once per insert/lookup on the hot path).
func (t Tuple) Key() string {
	return logic.Atom{Args: t}.Key()
}

// HasNull reports whether the tuple contains a labelled null.
func (t Tuple) HasNull() bool {
	for _, x := range t {
		if x.IsNull() {
			return true
		}
	}
	return false
}

// Clone copies the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Relation is a named, fixed-arity set of tuples with lazily built
// per-column hash indexes. Its tuples live in a TupleSet, in insertion
// order, keyed by hash: no key string is built per tuple.
//
// Concurrency contract: any number of goroutines may read (Lookup, Tuples,
// Contains, Len) concurrently — the lazy index build is synchronized — as
// long as no goroutine is inserting. Writes are single-writer: the chase
// buffers a round's new facts in a Shard and merges it at the round barrier.
// A relation of a frozen instance is frozen too: every generation aliasing
// it reads it, so a write that would change it panics.
type Relation struct {
	name  string
	arity int
	set   TupleSet
	// index[col][term] lists tuple offsets having term at col.
	index     []map[logic.Term][]int
	indexOnce sync.Once
	frozen    bool
}

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{name: name, arity: arity}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Arity returns the relation arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.set.Len() }

// Insert adds the tuple, reporting whether it was new. It panics on arity
// mismatch (a programming error, since callers validate predicates), and
// when the tuple is new to a frozen relation. Single-writer, like all
// Relation mutations.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("storage: tuple arity %d for relation %s/%d", len(t), r.name, r.arity))
	}
	h := tupleHash(t)
	i, found := r.set.find(h, t)
	if found {
		return false
	}
	r.mustBeWritable()
	r.addAt(i, h, t.Clone())
	return true
}

// addAt appends t, absent and hashing to h, recording it in the empty slot
// i that the set's probe returned, and maintains already-built indexes.
func (r *Relation) addAt(i int, h uint32, t Tuple) {
	r.set.put(i, h, t)
	if r.index != nil {
		last := r.set.Len() - 1
		for col, term := range t {
			r.index[col][term] = append(r.index[col][term], last)
		}
	}
}

// Remove deletes the tuple, reporting whether it was present. The vacated
// row is filled by swapping in the last tuple, and already-built per-column
// indexes are maintained in place (postings of the removed tuple dropped,
// postings of the moved tuple renamed), so a deletion costs O(arity ·
// posting-list) instead of an index rebuild. Single-writer, like Insert,
// and like Insert it panics when it would change a frozen relation.
func (r *Relation) Remove(t Tuple) bool {
	i, found := r.set.find(tupleHash(t), t)
	if !found {
		return false
	}
	r.mustBeWritable()
	r.removeAt(i)
	return true
}

// removeAt deletes the tuple recorded in slot i of the set.
func (r *Relation) removeAt(i int) {
	row, last := int(r.set.slots[i].row)-1, r.set.Len()-1
	if r.index != nil {
		for col, term := range r.set.tuples[row] {
			dropOffset(r.index[col], term, row)
		}
		if row != last {
			for col, term := range r.set.tuples[last] {
				renameOffset(r.index[col][term], last, row)
			}
		}
	}
	r.set.removeAt(i)
}

// readOnly is the panic a write to frozen data raises.
const readOnly = "storage: published and ExtendClone-parent instances are read-only; ExtendClone it first"

func (r *Relation) mustBeWritable() {
	if r.frozen {
		panic(readOnly)
	}
}

// dropOffset removes one occurrence of off from the posting list of term,
// deleting the map entry when the list empties (posting order is not
// significant; Lookup callers treat offsets as a set).
func dropOffset(m map[logic.Term][]int, term logic.Term, off int) {
	offs := m[term]
	for j, o := range offs {
		if o == off {
			offs[j] = offs[len(offs)-1]
			offs = offs[:len(offs)-1]
			if len(offs) == 0 {
				delete(m, term)
			} else {
				m[term] = offs
			}
			return
		}
	}
}

// renameOffset rewrites the posting entry from -> to in place.
func renameOffset(offs []int, from, to int) {
	for j, o := range offs {
		if o == from {
			offs[j] = to
			return
		}
	}
}

// Contains reports whether the tuple is present.
func (r *Relation) Contains(t Tuple) bool { return r.set.Contains(t) }

// Tuples returns the backing slice of tuples; callers must not mutate it.
//
//repro:hotpath
func (r *Relation) Tuples() []Tuple { return r.set.tuples }

// buildIndex materializes the per-column indexes. Indexes carried over by
// Clone are kept as-is.
func (r *Relation) buildIndex() {
	if r.index != nil {
		return
	}
	index := make([]map[logic.Term][]int, r.arity)
	for col := 0; col < r.arity; col++ {
		index[col] = make(map[logic.Term][]int)
	}
	for i, t := range r.set.tuples {
		for col, term := range t {
			index[col][term] = append(index[col][term], i)
		}
	}
	r.index = index
}

// EnsureIndex builds the per-column indexes if they are not built yet. It is
// safe to call from concurrent readers; once it returns, Lookup is a pure
// map read.
func (r *Relation) EnsureIndex() {
	r.indexOnce.Do(r.buildIndex)
}

// Lookup returns the offsets of tuples with the given term at column col
// (0-based). Builds the index on first use; see the Relation concurrency
// contract.
//
//repro:hotpath
func (r *Relation) Lookup(col int, term logic.Term) []int {
	r.EnsureIndex()
	return r.index[col][term]
}

// Distinct returns the number of distinct terms at column col — the key
// count of the per-column index, which Insert and Remove maintain
// incrementally (Remove drops a term's map entry when its posting list
// empties). Builds the index on first use; safe for concurrent readers under
// the Relation concurrency contract. The join planner's cost model divides
// Len by this to estimate the expected posting-list length of an index probe.
func (r *Relation) Distinct(col int) int {
	r.EnsureIndex()
	return len(r.index[col])
}

// Instance is a database instance: a collection of relations keyed by
// predicate name.
//
// An instance is frozen by Freeze — the Ontology freezes every instance it
// publishes — and by ExtendClone, which freezes its receiver. A frozen
// instance is read-only for good: Insert, InsertAtom, Remove, MergeShards and
// LoadCSV panic on it, while lazy index builds stay allowed. Instances
// produced by ExtendClone alias their parent's (frozen) relations
// copy-on-write: a frozen relation is copied the first time the clone
// changes it, so every generation sharing it keeps an immutable view.
type Instance struct {
	rels   map[string]*Relation
	frozen bool
}

// NewInstance returns an empty instance.
func NewInstance() *Instance {
	return &Instance{rels: make(map[string]*Relation)}
}

// Freeze makes the instance and each of its relations read-only. Freezing a
// frozen instance is a no-op that writes nothing, so concurrent readers of
// published data may call it (through ExtendClone) without racing.
func (ins *Instance) Freeze() {
	if ins.frozen {
		return
	}
	ins.frozen = true
	for _, r := range ins.rels {
		if !r.frozen {
			r.frozen = true
		}
	}
}

func (ins *Instance) mustBeWritable() {
	if ins.frozen {
		panic(readOnly)
	}
}

// FromAtoms builds an instance from ground atoms, returning an error on any
// non-ground atom or arity conflict.
func FromAtoms(atoms []logic.Atom) (*Instance, error) {
	ins := NewInstance()
	for _, a := range atoms {
		if !a.IsGround() {
			return nil, fmt.Errorf("storage: non-ground atom %v", a)
		}
		if err := ins.InsertAtom(a); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// MustFromAtoms is FromAtoms panicking on error.
func MustFromAtoms(atoms []logic.Atom) *Instance {
	ins, err := FromAtoms(atoms)
	if err != nil {
		panic(err)
	}
	return ins
}

// Relation returns the relation for pred, or nil if absent.
func (ins *Instance) Relation(pred string) *Relation { return ins.rels[pred] }

// ensureRelation returns the relation for pred, creating it empty when
// absent; an existing relation with a different arity is an error. Mutating:
// single-writer, like Insert.
func (ins *Instance) ensureRelation(pred string, arity int) (*Relation, error) {
	rel, ok := ins.rels[pred]
	if !ok {
		rel = NewRelation(pred, arity)
		ins.rels[pred] = rel
		return rel, nil
	}
	if rel.Arity() != arity {
		return nil, fmt.Errorf("storage: predicate %s used with arity %d and %d",
			pred, rel.Arity(), arity)
	}
	return rel, nil
}

// InsertAtom adds a ground atom as a tuple, creating the relation on first
// use; reports an arity conflict as an error. Returns nil even when the
// tuple was already present (idempotent).
func (ins *Instance) InsertAtom(a logic.Atom) error {
	_, err := ins.Insert(a)
	return err
}

// Insert adds a ground atom, reporting whether it was new. The atom is hashed
// once, and its arguments are copied only when it is new.
func (ins *Instance) Insert(a logic.Atom) (bool, error) {
	ins.mustBeWritable()
	rel, ok := ins.rels[a.Pred]
	if !ok {
		rel = NewRelation(a.Pred, a.Arity())
		ins.rels[a.Pred] = rel
	}
	if rel.Arity() != a.Arity() {
		return false, fmt.Errorf("storage: predicate %s used with arity %d and %d",
			a.Pred, rel.Arity(), a.Arity())
	}
	h := tupleHash(a.Args)
	i, found := rel.set.find(h, a.Args)
	if found {
		return false, nil // dedup, against a frozen relation too, without copying
	}
	if rel.frozen {
		rel = ins.own(a.Pred) // the copy's slot table is the original's: i stays valid
	}
	rel.addAt(i, h, Tuple(a.Args).Clone())
	return true, nil
}

// Remove deletes a ground atom, reporting whether it was present. Removing
// an absent atom (or one whose predicate has a different arity) is a no-op.
func (ins *Instance) Remove(a logic.Atom) bool {
	ins.mustBeWritable()
	rel := ins.rels[a.Pred]
	if rel == nil || rel.Arity() != a.Arity() {
		return false
	}
	i, found := rel.set.find(tupleHash(a.Args), a.Args)
	if !found {
		return false
	}
	if rel.frozen {
		rel = ins.own(a.Pred) // the copy's slot table is the original's: i stays valid
	}
	rel.removeAt(i)
	return true
}

// own replaces the frozen relation for pred, aliased with an ExtendClone
// parent, with a private copy and returns it.
func (ins *Instance) own(pred string) *Relation {
	rel := ins.rels[pred].Clone()
	ins.rels[pred] = rel
	return rel
}

// ContainsAtom reports whether the ground atom is in the instance.
func (ins *Instance) ContainsAtom(a logic.Atom) bool {
	rel := ins.rels[a.Pred]
	if rel == nil || rel.Arity() != a.Arity() {
		return false
	}
	return rel.Contains(Tuple(a.Args))
}

// Predicates returns the predicate names present, sorted.
func (ins *Instance) Predicates() []string {
	out := make([]string, 0, len(ins.rels))
	for p := range ins.rels {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Size returns the total number of tuples across relations.
func (ins *Instance) Size() int {
	n := 0
	for _, r := range ins.rels {
		n += r.Len()
	}
	return n
}

// Atoms returns every fact as an atom, grouped by predicate in sorted order.
func (ins *Instance) Atoms() []logic.Atom {
	var out []logic.Atom
	for _, p := range ins.Predicates() {
		for _, t := range ins.rels[p].Tuples() {
			out = append(out, logic.NewAtom(p, t.Clone()...))
		}
	}
	return out
}

// EnsureIndexes pre-builds the per-column indexes of every relation so that
// subsequent concurrent readers never race on the lazy build.
func (ins *Instance) EnsureIndexes() {
	for _, r := range ins.rels {
		r.EnsureIndex()
	}
}

// Clone copies the relation without re-hashing: the tuple list and the
// set's flat slot table are copied with one copy each, and the per-column
// indexes posting by posting, into an unfrozen relation. Tuple values
// themselves are shared — they are immutable by contract. The index is built
// first through EnsureIndex, which both carries it into the copy and
// synchronizes with any concurrent lazy build by readers: Clone is safe to
// call while other goroutines read r.
func (r *Relation) Clone() *Relation {
	r.EnsureIndex()
	nr := &Relation{name: r.name, arity: r.arity, set: r.set.clone()}
	index := make([]map[logic.Term][]int, r.arity)
	for col, m := range r.index {
		nm := make(map[logic.Term][]int, len(m))
		for t, offs := range m {
			no := make([]int, len(offs))
			copy(no, offs)
			nm[t] = no
		}
		index[col] = nm
	}
	nr.index = index
	nr.indexOnce.Do(func() {})
	return nr
}

// Clone deep-copies the instance cheaply: per-relation wholesale copies of
// tuples, slot tables and built indexes (see Relation.Clone), making snapshots
// of a chased instance a copy, not a rebuild. The copy is unfrozen, even of
// a frozen instance. Safe while other goroutines read ins; must not race
// with writers.
func (ins *Instance) Clone() *Instance {
	out := NewInstance()
	for p, r := range ins.rels {
		out.rels[p] = r.Clone()
	}
	return out
}

// ExtendClone freezes the receiver and returns a copy-on-write child of it:
// every relation is aliased with the receiver until the child first changes
// it, at which point just that relation is copied. A writer extending a
// published snapshot therefore pays copy cost proportional to the relations
// its delta touches, not to the whole instance, while readers of the parent
// keep an immutable view — a write to the parent panics from now on.
func (ins *Instance) ExtendClone() *Instance {
	ins.Freeze()
	out := &Instance{rels: make(map[string]*Relation, len(ins.rels))}
	for p, r := range ins.rels {
		out.rels[p] = r
	}
	return out
}

// String renders the instance as sorted fact lines.
func (ins *Instance) String() string {
	var lines []string
	for _, a := range ins.Atoms() {
		lines = append(lines, a.String()+" .")
	}
	return strings.Join(lines, "\n")
}

package storage

import "repro/internal/logic"

// Store is the one kind of fact store the engine layers (eval, chase, the
// answer cache, the Ontology) run over: P hash partitions, each a plain
// Instance, with a fact routed to partition hash(args[Col]) % P. An
// *Instance is the zero-copy P = 1 store — Part(0) is the instance itself
// and Route is always 0 — and a *PartitionedInstance is the store for P > 1,
// so the unpartitioned layout is a value of P, not a separate code path.
//
// Relation-alignment invariant: a relation present in any partition is
// present (possibly empty, same arity) in every partition, so binding a plan
// per partition is all-or-none. Concurrency is the Instance contract, per
// partition: any number of readers, one writer, published snapshots extended
// copy-on-write through Fork.
type Store interface {
	// NumParts returns the partition count P (>= 1).
	NumParts() int
	// Part returns the i-th sub-instance; read-only unless the caller owns
	// the whole store under the single-writer contract.
	Part(i int) *Instance
	// Col returns the term position facts route on.
	Col() int
	// Route returns the home partition of a ground atom (0 when its arity
	// does not reach the routing column).
	Route(a logic.Atom) int
	// Insert adds a ground atom to its home partition, reporting whether it
	// was new.
	Insert(a logic.Atom) (bool, error)
	// Remove deletes a ground atom from its home partition, reporting whether
	// it was present.
	Remove(a logic.Atom) bool
	// MergeShardsPart folds chase write buffers, holding only facts routed to
	// partition p, into that partition and returns its delta.
	MergeShardsPart(p int, shards ...*Shard) (*Instance, error)
	// EnsureIndexes pre-builds every per-column index so concurrent readers
	// never race on the lazy build.
	EnsureIndexes()
	// Size returns the total number of tuples.
	Size() int
	// Fork returns a copy-on-write extension of the store (ExtendClone); the
	// receiver must not be mutated afterwards.
	Fork() Store
}

// MaxPartitions bounds the partition count accepted from outside the program
// (server request bodies, CLI flags): every partition is a whole Instance, so
// an unchecked count is an allocation the caller controls.
const MaxPartitions = 64

// NewStore returns a private P-partition copy of src routed on term position
// col: a Clone for p <= 1, a re-hash into fresh partitions otherwise. src is
// only read, so it may be a live snapshot with concurrent readers.
func NewStore(src *Instance, p, col int) (Store, error) {
	if p <= 1 {
		return src.Clone(), nil
	}
	return Partition(src, p, col)
}

// Flatten returns the store's facts as one Instance: the store itself at
// P = 1, a fresh merge of the (disjoint) partitions otherwise.
func Flatten(s Store) *Instance {
	if s.NumParts() == 1 {
		return s.Part(0)
	}
	out := NewInstance()
	for p := 0; p < s.NumParts(); p++ {
		for pred, r := range s.Part(p).rels {
			dst := out.rels[pred]
			if dst == nil {
				dst = NewRelation(pred, r.Arity())
				out.rels[pred] = dst
			}
			for _, t := range r.Tuples() {
				if dst.Insert(t) {
					out.muts.Add(1)
				}
			}
		}
	}
	return out
}

// NumParts is 1: an Instance is the single-partition Store.
func (ins *Instance) NumParts() int { return 1 }

// Part returns the instance itself.
func (ins *Instance) Part(int) *Instance { return ins }

// Col is 0; with one partition the routing column is never consulted.
func (ins *Instance) Col() int { return 0 }

// Route is always 0.
func (ins *Instance) Route(logic.Atom) int { return 0 }

// MergeShardsPart is MergeShards: every shard's facts belong to the one
// partition.
func (ins *Instance) MergeShardsPart(_ int, shards ...*Shard) (*Instance, error) {
	return ins.MergeShards(shards...)
}

// Fork is ExtendClone as a Store.
func (ins *Instance) Fork() Store { return ins.ExtendClone() }

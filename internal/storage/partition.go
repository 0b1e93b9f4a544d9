package storage

import "repro/internal/logic"

// PartitionedInstance is the Store for P > 1: P sub-instances, each with its
// own relations, per-column indexes and pair statistics, with a fact routed
// to partition hash(args[col]) % P. Facts whose predicate has arity <= col
// cannot be routed by value and all live in partition 0. Its mutating entry
// points maintain the Store relation-alignment invariant.
type PartitionedInstance struct {
	col   int
	parts []*Instance
}

// NewPartitionedInstance returns an empty store with p partitions (p < 1 is
// clamped to 1) routed on term position col (negative is clamped to 0).
func NewPartitionedInstance(p, col int) *PartitionedInstance {
	if p < 1 {
		p = 1
	}
	if col < 0 {
		col = 0
	}
	parts := make([]*Instance, p)
	for i := range parts {
		parts[i] = NewInstance()
	}
	return &PartitionedInstance{col: col, parts: parts}
}

// Partition splits src into p hash partitions routed on term position col.
// Tuples are re-hashed into fresh per-partition relations; src is only
// read, so it may be a live snapshot with concurrent readers.
func Partition(src *Instance, p, col int) (*PartitionedInstance, error) {
	pi := NewPartitionedInstance(p, col)
	for pred, r := range src.rels {
		arity := r.Arity()
		if err := pi.ensureAligned(pred, arity); err != nil {
			return nil, err
		}
		for _, t := range r.Tuples() {
			part := pi.routeTuple(arity, t)
			pi.parts[part].rels[pred].Insert(t)
			pi.parts[part].muts.Add(1)
		}
	}
	return pi, nil
}

// RoutePart returns the partition, of nparts, a fact carrying t at the routing
// column lives in: a stable FNV-1a hash of the term (kind byte plus name)
// modulo nparts. Exported so that partition-pruned evaluation agrees with
// storage on where a fact lives without an interface call per probe.
//
//repro:hotpath
func RoutePart(t logic.Term, nparts int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= uint64(t.Kind)
	h *= prime64
	for i := 0; i < len(t.Name); i++ {
		h ^= uint64(t.Name[i])
		h *= prime64
	}
	return int(h % uint64(nparts))
}

// NumParts returns the partition count P.
func (pi *PartitionedInstance) NumParts() int { return len(pi.parts) }

// Col returns the term position the store routes on.
func (pi *PartitionedInstance) Col() int { return pi.col }

// Part returns the i-th sub-instance. Callers must treat it as read-only
// unless they own the whole store under the single-writer contract.
func (pi *PartitionedInstance) Part(i int) *Instance { return pi.parts[i] }

// Route returns the home partition of a ground atom: hash of the routing
// column's term, or partition 0 when the predicate's arity does not reach
// the routing column.
//
//repro:hotpath
func (pi *PartitionedInstance) Route(a logic.Atom) int {
	if a.Arity() <= pi.col {
		return 0
	}
	return RoutePart(a.Args[pi.col], len(pi.parts))
}

func (pi *PartitionedInstance) routeTuple(arity int, t Tuple) int {
	if arity <= pi.col {
		return 0
	}
	return RoutePart(t[pi.col], len(pi.parts))
}

// ensureAligned creates the relation empty in every partition it is missing
// from, maintaining the alignment invariant (and surfacing arity conflicts).
func (pi *PartitionedInstance) ensureAligned(pred string, arity int) error {
	for _, p := range pi.parts {
		if _, err := p.EnsureRelation(pred, arity); err != nil {
			return err
		}
	}
	return nil
}

// Insert adds a ground atom to its home partition, reporting whether it was
// new; a first-use predicate is created (empty) in every partition.
// Single-writer.
func (pi *PartitionedInstance) Insert(a logic.Atom) (bool, error) {
	home := pi.parts[pi.Route(a)]
	if home.Relation(a.Pred) == nil {
		if err := pi.ensureAligned(a.Pred, a.Arity()); err != nil {
			return false, err
		}
	}
	return home.Insert(a)
}

// Remove deletes a ground atom from its home partition, reporting whether
// it was present. Single-writer.
func (pi *PartitionedInstance) Remove(a logic.Atom) bool {
	return pi.parts[pi.Route(a)].Remove(a)
}

// MergeShardsPart folds chase write buffers into partition p and returns
// that partition's delta, then re-aligns any relations the merge created.
// Single-writer, at a round barrier, like Instance.MergeShards. The shards
// must only contain facts routed to p — the chase's exchange queue ships
// stray facts before the barrier merge.
func (pi *PartitionedInstance) MergeShardsPart(p int, shards ...*Shard) (*Instance, error) {
	delta, err := pi.parts[p].MergeShards(shards...)
	if err != nil {
		return nil, err
	}
	for pred, r := range delta.rels {
		if err := pi.ensureAligned(pred, r.Arity()); err != nil {
			return nil, err
		}
	}
	return delta, nil
}

// Size returns the total number of tuples across all partitions.
func (pi *PartitionedInstance) Size() int {
	n := 0
	for _, p := range pi.parts {
		n += p.Size()
	}
	return n
}

// EnsureIndexes pre-builds every partition's per-column indexes so that
// subsequent concurrent readers never race on the lazy build.
func (pi *PartitionedInstance) EnsureIndexes() {
	for _, p := range pi.parts {
		p.EnsureIndexes()
	}
}

// ExtendClone returns a copy-on-write snapshot: every partition is an
// ExtendClone of the receiver's, so a writer extending a published
// partitioned snapshot pays copy cost proportional to the relations its
// delta touches, per partition. The parent must not be mutated afterwards.
func (pi *PartitionedInstance) ExtendClone() *PartitionedInstance {
	out := &PartitionedInstance{col: pi.col, parts: make([]*Instance, len(pi.parts))}
	for i, p := range pi.parts {
		out.parts[i] = p.ExtendClone()
	}
	return out
}

// Fork is ExtendClone as a Store.
func (pi *PartitionedInstance) Fork() Store { return pi.ExtendClone() }

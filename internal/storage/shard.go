package storage

import (
	"runtime"
	"sync"

	"repro/internal/logic"
)

// Shard is a coordination-free write buffer for one chase worker: new facts
// accumulate here, deduplicated locally per predicate, while the shared
// Instance stays frozen for concurrent readers. At the round barrier the
// shards are merged into the instance (MergeShards), which also yields the
// round's delta. A Shard must only ever be used by one goroutine.
type Shard struct {
	ins *Instance
}

// NewShard returns an empty write buffer.
func NewShard() *Shard {
	return &Shard{ins: NewInstance()}
}

// Insert buffers a ground atom, reporting whether it was new *to this
// shard*. Arity conflicts with earlier buffered atoms are errors; conflicts
// with the destination instance surface at merge time.
func (s *Shard) Insert(a logic.Atom) (bool, error) {
	return s.ins.Insert(a)
}

// Len returns the number of distinct buffered facts.
func (s *Shard) Len() int { return s.ins.Size() }

// mergeGroup gathers, for one predicate, every shard relation buffering
// facts for it — the unit of per-relation merging.
type mergeGroup struct {
	pred  string
	arity int
	srcs  []*Relation
}

// MergeShards folds the buffered facts of every shard into the instance and
// returns the delta: a fresh instance holding exactly the facts that were
// genuinely new. Single-writer: callers invoke it at a barrier, with no
// concurrent readers of ins. It panics on a frozen instance.
//
// The merge runs per relation, not per shard: all shards' buffers for one
// predicate are merged together, deduplicated across shards as they go, so
// a fact buffered by k workers probes the destination once instead of k
// times, and the relation/COW resolution is hoisted out of the tuple loop.
// Independent relations merge concurrently when GOMAXPROCS allows —
// distinct Relation objects, with the instance's relation map pre-resolved
// sequentially, keep the fan-out race-free.
func (ins *Instance) MergeShards(shards ...*Shard) (*Instance, error) {
	ins.mustBeWritable()
	groups, order, err := groupShards(shards)
	if err != nil {
		return nil, err
	}
	delta := NewInstance()
	// Sequential prologue: create missing destination relations and detect
	// arity conflicts, then materialize private copies of frozen (COW)
	// relations that are about to grow, so the concurrent tail below never
	// touches the relation map.
	for _, g := range groups {
		dst, err := ins.ensureRelation(g.pred, g.arity)
		if err != nil {
			return nil, err
		}
		if _, err := delta.ensureRelation(g.pred, g.arity); err != nil {
			return nil, err
		}
		if dst.frozen && groupHasNew(dst, g) {
			ins.own(g.pred)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(order) {
		workers = len(order)
	}
	if workers <= 1 {
		for _, pred := range order {
			ins.mergeRelation(groups[pred], delta)
		}
		return dropEmpty(delta), nil
	}
	var wg sync.WaitGroup
	next := make(chan string, len(order))
	for _, pred := range order {
		next <- pred
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pred := range next {
				ins.mergeRelation(groups[pred], delta)
			}
		}()
	}
	wg.Wait()
	return dropEmpty(delta), nil
}

// dropEmpty removes relations the merge pre-created but never filled, so
// the delta holds exactly the predicates with genuinely new facts (the
// shape the per-shard fold produced).
func dropEmpty(delta *Instance) *Instance {
	for pred, r := range delta.rels {
		if r.Len() == 0 {
			delete(delta.rels, pred)
		}
	}
	return delta
}

// groupShards gathers the shard relations per predicate, surfacing
// cross-shard arity conflicts; order keeps the merge deterministic.
func groupShards(shards []*Shard) (map[string]*mergeGroup, []string, error) {
	groups := make(map[string]*mergeGroup)
	var order []string
	for _, s := range shards {
		if s == nil {
			continue
		}
		for pred, r := range s.ins.rels {
			g := groups[pred]
			if g == nil {
				g = &mergeGroup{pred: pred, arity: r.Arity()}
				groups[pred] = g
				order = append(order, pred)
			}
			if g.arity != r.Arity() {
				return nil, nil, arityErr(pred, g.arity, r.Arity())
			}
			g.srcs = append(g.srcs, r)
		}
	}
	return groups, order, nil
}

// groupHasNew reports whether any shard buffers a fact absent from dst —
// the COW copy test: a frozen relation is only privatized when the merge
// will genuinely grow it.
func groupHasNew(dst *Relation, g *mergeGroup) bool {
	for _, src := range g.srcs {
		for _, t := range src.Tuples() {
			if !dst.Contains(t) {
				return true
			}
		}
	}
	return false
}

// mergeRelation folds one predicate's shard buffers into its destination
// relation, deduplicating across shards via the shards' own key maps: a
// tuple seen in an earlier shard of the group is skipped before the
// destination is probed. New tuples land in the delta relation directly —
// they are distinct by construction, so the delta insert never re-probes a
// grown set. The destination relation is private by the time this runs
// (see MergeShards), so concurrent per-relation merges are disjoint.
func (ins *Instance) mergeRelation(g *mergeGroup, delta *Instance) {
	dst := ins.rels[g.pred]
	dRel := delta.rels[g.pred]
	for si, src := range g.srcs {
		for k, i := range src.keys {
			if dupInEarlierShard(g, si, k) {
				continue
			}
			t := src.tuples[i]
			if dst.Insert(t) {
				dRel.Insert(t)
			}
		}
	}
}

// dupInEarlierShard reports whether tuple key k already appears in a shard
// before index si in the group — cross-shard dedup reusing the shards' key
// maps instead of growing a scratch set.
func dupInEarlierShard(g *mergeGroup, si int, k string) bool {
	for _, prev := range g.srcs[:si] {
		if _, ok := prev.keys[k]; ok {
			return true
		}
	}
	return false
}

func arityErr(pred string, a, b int) error {
	return &arityConflict{pred: pred, a: a, b: b}
}

// arityConflict mirrors the error Insert reports for mismatched predicate
// arities, for the grouped merge path.
type arityConflict struct {
	pred string
	a, b int
}

func (e *arityConflict) Error() string {
	return "storage: predicate " + e.pred + " used with conflicting arities in shard merge"
}

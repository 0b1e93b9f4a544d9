package storage

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/logic"
)

// Shard is a coordination-free write buffer for one chase worker: new facts
// accumulate here, keyed but not deduplicated, while the shared Instance
// stays frozen for concurrent readers. At the round barrier the shards are
// merged into the instance (MergeShards), whose destination probe drops
// every fact already present — earlier in this shard, in another shard or
// in the instance — and which yields the round's delta. A Shard must only
// ever be used by one goroutine.
type Shard struct {
	rels map[string]*shardRel
}

// shardRel is one predicate's buffer: the tuples in insertion order, each
// with its key, so the merge neither re-keys nor copies a fact and replays
// the buffer in the order it was written.
type shardRel struct {
	arity  int
	keys   []string
	tuples []Tuple
}

// NewShard returns an empty write buffer.
func NewShard() *Shard {
	return &Shard{rels: make(map[string]*shardRel)}
}

// Insert buffers a ground atom. The shard takes ownership of a.Args: the
// caller must not modify them afterwards, and the merge stores them as they
// are. Arity conflicts with earlier buffered atoms are errors; conflicts
// with the destination instance surface at merge time.
func (s *Shard) Insert(a logic.Atom) error {
	r := s.rels[a.Pred]
	if r == nil {
		r = &shardRel{arity: a.Arity()}
		s.rels[a.Pred] = r
	}
	if r.arity != a.Arity() {
		return fmt.Errorf("storage: predicate %s used with arity %d and %d",
			a.Pred, r.arity, a.Arity())
	}
	r.keys = append(r.keys, Tuple(a.Args).Key())
	r.tuples = append(r.tuples, a.Args)
	return nil
}

// mergeGroup gathers, for one predicate, every shard relation buffering
// facts for it — the unit of per-relation merging.
type mergeGroup struct {
	pred  string
	arity int
	srcs  []*shardRel
}

// MergeShards folds the buffered facts of every shard into the instance and
// returns the delta: a fresh instance holding exactly the facts that were
// genuinely new. Single-writer: callers invoke it at a barrier, with no
// concurrent readers of ins. It panics on a frozen instance.
//
// The merge runs per relation, not per shard: all shards' buffers for one
// predicate are merged together, so the relation/COW resolution is hoisted
// out of the tuple loop. Independent relations merge concurrently when
// GOMAXPROCS allows — distinct Relation objects, with the instance's
// relation map pre-resolved sequentially, keep the fan-out race-free.
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

// groupShards gathers the shard relations per predicate, in shard order,
// surfacing cross-shard arity conflicts; order lists the predicates.
func groupShards(shards []*Shard) (map[string]*mergeGroup, []string, error) {
	groups := make(map[string]*mergeGroup)
	var order []string
	for _, s := range shards {
		if s == nil {
			continue
		}
		for pred, r := range s.rels {
			g := groups[pred]
			if g == nil {
				g = &mergeGroup{pred: pred, arity: r.arity}
				groups[pred] = g
				order = append(order, pred)
			}
			if g.arity != r.arity {
				return nil, nil, arityErr(pred, g.arity, r.arity)
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
		for _, k := range src.keys {
			if _, ok := dst.keys[k]; !ok {
				return true
			}
		}
	}
	return false
}

// mergeRelation folds one predicate's shard buffers into its destination
// relation, shard by shard in insertion order, so a run's tuple order (and
// with it the next round's firing order and null names) is reproducible.
// Each fact enters the destination and the delta under the key and with the
// tuple its shard built: no re-keying, no copy. The destination probe is the
// only dedup — a fact buffered twice, by one shard or by several, is found
// there the second time — so the tuples reaching the delta are distinct by
// construction. The destination relation is private by the time this runs
// (see MergeShards), so concurrent per-relation merges are disjoint.
func (ins *Instance) mergeRelation(g *mergeGroup, delta *Instance) {
	dst := ins.rels[g.pred]
	dRel := delta.rels[g.pred]
	for _, src := range g.srcs {
		for i, k := range src.keys {
			if t := src.tuples[i]; dst.insertKeyed(k, t) {
				dRel.add(k, t)
			}
		}
	}
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

package storage

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/logic"
)

// Shard is the chase round's write buffer: new facts accumulate here, not
// deduplicated, while the Instance stays frozen for the round's reads. Each
// fact is hashed once, as it is buffered, and carries its hash into the
// merge. At the round barrier the shard is merged into the instance
// (MergeShards), whose destination probe under that hash drops every fact
// already present — earlier in the shard or in the instance — and which
// yields the round's delta.
type Shard struct {
	rels map[string]*shardRel
}

// shardRel is one predicate's buffer: the tuples in insertion order, each
// with its hash, so the merge neither re-hashes nor copies a fact and
// replays the buffer in the order it was written.
type shardRel struct {
	arity  int
	hashes []uint32
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
	r.hashes = append(r.hashes, tupleHash(a.Args))
	r.tuples = append(r.tuples, a.Args)
	return nil
}

// MergeShards folds the facts buffered in sh into the instance and returns
// the delta: a fresh instance holding exactly the facts that were genuinely
// new. Single-writer: callers invoke it at a barrier, with no concurrent
// readers of ins. It panics on a frozen instance.
//
// Independent relations merge concurrently when GOMAXPROCS allows —
// distinct Relation objects, with the instance's relation map pre-resolved
// sequentially, keep the fan-out race-free.
func (ins *Instance) MergeShards(sh *Shard) (*Instance, error) {
	ins.mustBeWritable()
	delta := NewInstance()
	// Sequential prologue: create missing destination relations and detect
	// arity conflicts, then materialize private copies of frozen (COW)
	// relations that are about to grow, so the concurrent tail below never
	// touches the relation map.
	order := make([]string, 0, len(sh.rels))
	for pred, src := range sh.rels {
		dst, err := ins.ensureRelation(pred, src.arity)
		if err != nil {
			return nil, err
		}
		if _, err := delta.ensureRelation(pred, src.arity); err != nil {
			return nil, err
		}
		if dst.frozen && hasNew(dst, src) {
			ins.own(pred)
		}
		order = append(order, pred)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(order) {
		workers = len(order)
	}
	if workers <= 1 {
		for _, pred := range order {
			ins.mergeRelation(pred, sh.rels[pred], delta)
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
				ins.mergeRelation(pred, sh.rels[pred], delta)
			}
		}()
	}
	wg.Wait()
	return dropEmpty(delta), nil
}

// dropEmpty removes relations the merge pre-created but never filled, so
// the delta holds exactly the predicates with genuinely new facts.
func dropEmpty(delta *Instance) *Instance {
	for pred, r := range delta.rels {
		if r.Len() == 0 {
			delete(delta.rels, pred)
		}
	}
	return delta
}

// hasNew reports whether src buffers a fact absent from dst — the COW copy
// test: a frozen relation is only privatized when the merge will genuinely
// grow it.
func hasNew(dst *Relation, src *shardRel) bool {
	for i, h := range src.hashes {
		if _, found := dst.set.find(h, src.tuples[i]); !found {
			return true
		}
	}
	return false
}

// mergeRelation folds one predicate's buffer into its destination relation
// in insertion order, so a run's tuple order (and with it the next round's
// firing order and null names) is reproducible. Each fact enters the
// destination and the delta under the hash and with the tuple the shard
// built: no re-hashing, no copy. The destination probe is the only dedup — a
// fact buffered twice is found there the second time — so the tuples
// reaching the delta are distinct by construction. The destination relation
// is private by the time this runs (see MergeShards), so concurrent
// per-relation merges are disjoint.
func (ins *Instance) mergeRelation(pred string, src *shardRel, delta *Instance) {
	dst := ins.rels[pred]
	dRel := delta.rels[pred]
	for i, h := range src.hashes {
		t := src.tuples[i]
		if j, found := dst.set.find(h, t); !found {
			dst.mustBeWritable()
			dst.addAt(j, h, t)
			dRel.set.addHashed(h, t) // the delta is fresh: no index to maintain
		}
	}
}

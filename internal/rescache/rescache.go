// Package rescache is the shared answer cache behind Ontology answering:
// completed, deduplicated answer sets cached per (canonical query, options
// key) with a byte-budgeted LRU (level 1), and pace-car flights that let N
// concurrent streaming consumers of the same query share one driving
// iterator (level 2, pacecar.go).
//
// A Cache value is immutable and belongs to exactly one published ontology
// snapshot: it hangs off that snapshot, every entry in it was evaluated over
// that snapshot's rules and stores, and it is valid for as long as the
// snapshot is reachable — readers validate nothing. Adding an entry builds a
// fresh Cache value (copy-on-write map) which the owner installs by
// compare-and-swap, so the answering path stays lock-free. When the ontology
// publishes a successor snapshot that only inserted facts, the cache is not
// dropped: MaintainInsert joins the inserted delta against each view through
// precompiled seeded plans (eval.CompileDeltaCQ + RunTuple) and returns the
// successor's cache — CQ monotonicity makes this sound, since inserts can
// only add answers, and every added answer uses at least one delta tuple.
// Deletions and rule mutations start the successor with an empty cache.
package rescache

import (
	"sort"
	"sync/atomic"

	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/storage"
)

// Stats carries the cache counters across generations. Hits/Misses count
// lookups, Evictions budget-driven removals, DeltaMaintained views carried
// across an insert-only mutation by delta join rather than dropped. The
// clock orders entries for LRU eviction without any per-lookup locking.
type Stats struct {
	Hits            atomic.Uint64
	Misses          atomic.Uint64
	Evictions       atomic.Uint64
	DeltaMaintained atomic.Uint64
	clock           atomic.Uint64
}

// maxDeltaPlans bounds the seeded plans compiled per entry (one per CQ ×
// body atom). A rewriting with a huge union is cheaper to re-evaluate on
// the next miss than to maintain, so entries over the cap are dropped on
// mutation instead of maintained.
const maxDeltaPlans = 128

// Entry is one cached answer view over one of its snapshot's two stores.
// Published entries are immutable except for lastUsed (an atomic recency
// stamp shared across carried-forward copies of the view) and delta (the
// lazily compiled maintenance plans, touched only under the ontology's
// writer lock).
type Entry struct {
	ans *eval.Answers
	u   *query.UCQ
	// onMat says which store the view was evaluated over: the chase
	// materialization, or the base data.
	onMat    bool
	bytes    int64
	delta    []*eval.Plan
	noDelta  bool
	lastUsed *atomic.Uint64
}

// NewEntry builds a cache entry for a completed answer set. u is the
// resolved UCQ the answers satisfy (the rewriting in rewrite mode, evaluated
// over the base data; the original query in chase mode, evaluated over the
// materialization — onMat).
func NewEntry(ans *eval.Answers, u *query.UCQ, onMat bool) *Entry {
	return &Entry{
		ans:      ans,
		u:        u,
		onMat:    onMat,
		bytes:    estimateBytes(ans),
		lastUsed: new(atomic.Uint64),
	}
}

// estimateBytes approximates the heap footprint of an answer set: tuple
// headers, term headers and name bytes, plus the dedup-key map.
func estimateBytes(ans *eval.Answers) int64 {
	var n int64 = 256
	for _, t := range ans.Tuples() {
		n += 96 // slice header + map key + bucket share
		for _, term := range t {
			n += 32 + int64(len(term.Name))
		}
	}
	return n
}

// Cache is one immutable value of a snapshot's answer-view cache. The zero
// value is never used; a nil *Cache behaves as an empty cache on every
// read-side method.
type Cache struct {
	bytes int64
	m     map[string]*Entry
}

// Lookup returns the cached answer set for key, or nil. Counts a hit or miss
// on stats and stamps the entry's LRU recency.
func (c *Cache) Lookup(key string, stats *Stats) *eval.Answers {
	var e *Entry
	if c != nil {
		e = c.m[key]
	}
	if e == nil {
		stats.Misses.Add(1)
		return nil
	}
	e.lastUsed.Store(stats.clock.Add(1))
	stats.Hits.Add(1)
	return e.ans
}

// Usage reports the entry count and byte estimate.
func (c *Cache) Usage() (entries int, bytes int64) {
	if c == nil {
		return 0, 0
	}
	return len(c.m), c.bytes
}

// WithEntry returns a new cache value containing e under key, evicting
// least-recently-used entries while the byte estimate exceeds budget.
func (c *Cache) WithEntry(budget int64, key string, e *Entry, stats *Stats) *Cache {
	n := &Cache{m: make(map[string]*Entry)}
	if c != nil {
		for k, old := range c.m {
			n.m[k] = old
			n.bytes += old.bytes
		}
		if old := n.m[key]; old != nil {
			n.bytes -= old.bytes
		}
	}
	// Insertion counts as a use: a fresh entry otherwise carries recency 0
	// and could lose the eviction sort to entries it was stored to outlive.
	e.lastUsed.Store(stats.clock.Add(1))
	n.m[key] = e
	n.bytes += e.bytes
	n.evict(budget, stats)
	return n
}

// evict removes least-recently-used entries until the byte estimate fits
// the budget. A single over-budget entry is evicted too: results larger
// than the whole budget are not worth caching.
func (c *Cache) evict(budget int64, stats *Stats) {
	if c.bytes <= budget {
		return
	}
	type aged struct {
		key  string
		used uint64
	}
	order := make([]aged, 0, len(c.m))
	for k, e := range c.m {
		order = append(order, aged{key: k, used: e.lastUsed.Load()})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].used < order[j].used })
	for _, a := range order {
		if c.bytes <= budget {
			break
		}
		c.bytes -= c.m[a.key].bytes
		delete(c.m, a.key)
		stats.Evictions.Add(1)
	}
}

// MaintainInput describes one insert-only step from a snapshot to its
// successor: the successor's base data and the facts inserted into it, and —
// when the successor's materialization is the previous one or a
// copy-on-write extension of it — both materializations (same partition
// layout). NewMat is nil when the materialization was dropped or rebuilt.
type MaintainInput struct {
	Base           storage.Store
	Added          []logic.Atom
	OldMat, NewMat storage.Store
	Budget         int64
}

// MaintainInsert returns the successor snapshot's cache, carrying each view
// across the insert by joining the delta through its seeded plans and
// merging any new answers. Views over a materialization that did not survive
// (NewMat nil), or too wide to maintain cheaply, are dropped: their upkeep
// is dearer than a miss. Runs under the ontology's writer lock; the returned
// cache is freshly allocated.
func (c *Cache) MaintainInsert(in MaintainInput, stats *Stats) *Cache {
	if c == nil || len(c.m) == 0 {
		return nil
	}
	n := &Cache{m: make(map[string]*Entry, len(c.m))}
	matDelta := suffixDelta(in.OldMat, in.NewMat)
	baseDelta := atomsDelta(in.Added)
	for k, e := range c.m {
		var next *Entry
		switch {
		case !e.onMat:
			next = e.maintain(in.Base, baseDelta, stats)
		case in.NewMat != nil:
			next = e.maintain(in.NewMat, matDelta, stats)
		}
		if next != nil {
			n.m[k] = next
			n.bytes += next.bytes
		}
	}
	if len(n.m) == 0 {
		return nil
	}
	n.evict(in.Budget, stats)
	return n
}

// maintain carries one view to store, the successor of the store it was
// evaluated over, given the delta between them, returning the successor's
// entry (nil to drop). When the delta is empty or its joins produce no fresh
// answers — the common case — the entry itself is carried, so upkeep costs
// only the delta join, never an O(result) rebuild.
func (e *Entry) maintain(store storage.Store, delta map[string][]storage.Tuple, stats *Stats) *Entry {
	if len(delta) == 0 {
		return e
	}
	if !e.ensureDeltaPlans(store) {
		return nil
	}
	var fresh []storage.Tuple
	eval.EachDelta(e.delta, store, delta, func(t storage.Tuple) {
		if !e.ans.Contains(t) {
			fresh = append(fresh, t)
		}
	})
	stats.DeltaMaintained.Add(1)
	if len(fresh) == 0 {
		return e
	}
	merged := eval.NewAnswers(e.ans.Arity())
	for _, t := range e.ans.Tuples() {
		merged.AddOwned(t)
	}
	for _, t := range fresh {
		merged.AddOwned(t)
	}
	next := *e
	next.ans = merged
	next.bytes = estimateBytes(merged)
	return &next
}

// ensureDeltaPlans lazily compiles the seeded maintenance plans — one per
// (member CQ, body atom) — the first time the view survives a mutation.
// Called only under the writer lock; the plans are stored on the receiver
// and shared by every carried-forward copy of the view. Reports false when the
// union is too wide to maintain under maxDeltaPlans.
func (e *Entry) ensureDeltaPlans(store storage.Store) bool {
	if e.noDelta {
		return false
	}
	if e.delta != nil {
		return true
	}
	total := 0
	for _, q := range e.u.CQs {
		total += len(q.Body)
	}
	if total > maxDeltaPlans {
		e.noDelta = true
		return false
	}
	plans := make([]*eval.Plan, 0, total)
	for _, q := range e.u.CQs {
		for di := range q.Body {
			plans = append(plans, eval.CompileDeltaCQ(q, di, store, eval.PlannerDefault, eval.JoinDefault))
		}
	}
	e.delta = plans
	return true
}

// suffixDelta computes the per-relation delta between a store and its
// copy-on-write extension: within each partition relations are append-only
// under inserts and shared by pointer when untouched, so the delta of a
// changed relation is exactly the tuple suffix past the old length. Nil when
// either side is missing.
func suffixDelta(old, new_ storage.Store) map[string][]storage.Tuple {
	if old == nil || new_ == nil {
		return nil
	}
	var delta map[string][]storage.Tuple
	for p := 0; p < new_.NumParts(); p++ {
		oldPart, newPart := old.Part(p), new_.Part(p)
		for _, pred := range newPart.Predicates() {
			nr := newPart.Relation(pred)
			or := oldPart.Relation(pred)
			if or == nr {
				continue
			}
			var tail []storage.Tuple
			switch {
			case or == nil:
				tail = nr.Tuples()
			case nr.Len() > or.Len():
				tail = nr.Tuples()[or.Len():]
			}
			if len(tail) > 0 {
				if delta == nil {
					delta = make(map[string][]storage.Tuple)
				}
				if have := delta[pred]; have == nil {
					// Capacity-clipped alias: a later partition's append
					// copies instead of writing into the relation's array.
					delta[pred] = tail[:len(tail):len(tail)]
				} else {
					delta[pred] = append(have, tail...)
				}
			}
		}
	}
	return delta
}

// atomsDelta groups inserted base facts by predicate as tuples — the delta
// shape EachDelta consumes for views over the base data.
func atomsDelta(added []logic.Atom) map[string][]storage.Tuple {
	if len(added) == 0 {
		return nil
	}
	delta := make(map[string][]storage.Tuple)
	for _, a := range added {
		delta[a.Pred] = append(delta[a.Pred], storage.Tuple(a.Args))
	}
	return delta
}

// Package rescache is the answer-view cache behind Ontology answering:
// completed, deduplicated answer sets cached per (canonical query, options
// key) with a byte-budgeted LRU.
//
// A Cache value is immutable and belongs to exactly one published ontology
// snapshot: it hangs off that snapshot, every entry in it was evaluated over
// that snapshot's rules and stores, and it is valid for as long as the
// snapshot is reachable — readers validate nothing. Adding an entry builds a
// fresh Cache value (copy-on-write map) which the owner installs by
// compare-and-swap, so the answering path stays lock-free. Nothing is ever
// carried to another snapshot: every publication starts its snapshot with an
// empty cache, which the readers of that snapshot fill.
package rescache

import (
	"sort"
	"sync/atomic"

	"repro/internal/eval"
)

// Stats carries the cache counters across snapshots. Hits/Misses count
// lookups, Evictions budget-driven removals. The clock orders entries for
// LRU eviction without any per-lookup locking.
type Stats struct {
	Hits      atomic.Uint64
	Misses    atomic.Uint64
	Evictions atomic.Uint64
	clock     atomic.Uint64
}

// Entry is one cached answer set. Published entries are immutable except for
// lastUsed, the recency stamp concurrent lookups write.
type Entry struct {
	ans      *eval.Answers
	bytes    int64
	lastUsed atomic.Uint64
}

// NewEntry builds a cache entry for a completed answer set.
func NewEntry(ans *eval.Answers) *Entry {
	return &Entry{ans: ans, bytes: estimateBytes(ans)}
}

// estimateBytes approximates the heap footprint of an answer set: tuple
// headers, term headers and name bytes, plus a share for membership. The
// membership share is generous — the hash-keyed set holds 16 to 32 bytes per
// row in its table — and stays so that eviction does not move under a fixed
// cache budget.
func estimateBytes(ans *eval.Answers) int64 {
	var n int64 = 256
	for _, t := range ans.Tuples() {
		n += 96 // slice header plus a membership share
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

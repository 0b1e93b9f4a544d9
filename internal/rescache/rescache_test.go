package rescache

import (
	"fmt"
	"testing"

	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/storage"
)

// edgeQuery is q(X,Y) :- edge(X,Y) as a one-CQ union.
func edgeQuery(t *testing.T) *query.UCQ {
	t.Helper()
	x, y := logic.NewVar("X"), logic.NewVar("Y")
	cq, err := query.New(logic.NewAtom("q", x, y), []logic.Atom{logic.NewAtom("edge", x, y)})
	if err != nil {
		t.Fatal(err)
	}
	u, err := query.NewUCQ(cq)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func edgeAtom(a, b string) logic.Atom {
	return logic.NewAtom("edge", logic.NewConst(a), logic.NewConst(b))
}

// evalEntry evaluates u over ins and wraps the result as a cache entry.
func evalEntry(t *testing.T, u *query.UCQ, ins *storage.Instance) *Entry {
	t.Helper()
	return NewEntry(eval.UCQ(u, ins, eval.Options{FilterNulls: true}))
}

func TestLookupCountsHitsAndMisses(t *testing.T) {
	u := edgeQuery(t)
	ins := storage.MustFromAtoms([]logic.Atom{edgeAtom("a", "b")})
	var stats Stats
	var c *Cache
	if got := c.Lookup("k", &stats); got != nil {
		t.Fatal("nil cache returned an answer set")
	}
	c = c.WithEntry(1<<20, "k", evalEntry(t, u, ins), &stats)

	if got := c.Lookup("k", &stats); got == nil || got.Len() != 1 {
		t.Fatalf("hit returned %v", got)
	}
	if got := c.Lookup("other", &stats); got != nil {
		t.Fatal("hit on an absent key")
	}
	if h, m := stats.Hits.Load(), stats.Misses.Load(); h != 1 || m != 2 {
		t.Errorf("hits=%d misses=%d, want 1 and 2", h, m)
	}
}

func TestWithEntryEvictsLeastRecentlyUsed(t *testing.T) {
	u := edgeQuery(t)
	ins := storage.MustFromAtoms([]logic.Atom{edgeAtom("a", "b")})
	var stats Stats

	one := evalEntry(t, u, ins)
	budget := 3 * one.bytes
	var c *Cache
	for i := 0; i < 3; i++ {
		c = c.WithEntry(budget, fmt.Sprintf("k%d", i), evalEntry(t, u, ins), &stats)
	}
	// Touch k0 and k2 so k1 is the LRU victim when a fourth entry lands.
	c.Lookup("k0", &stats)
	c.Lookup("k2", &stats)
	c = c.WithEntry(budget, "k3", evalEntry(t, u, ins), &stats)

	if got := c.Lookup("k1", &stats); got != nil {
		t.Fatal("LRU entry k1 survived eviction")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if got := c.Lookup(k, &stats); got == nil {
			t.Fatalf("recently used entry %s was evicted", k)
		}
	}
	if n := stats.Evictions.Load(); n != 1 {
		t.Errorf("evictions=%d, want 1", n)
	}
	if entries, bytes := c.Usage(); entries != 3 || bytes > budget {
		t.Errorf("usage=(%d, %d), want 3 entries within budget %d", entries, bytes, budget)
	}
}

func TestWithEntryReplaceAdjustsBytes(t *testing.T) {
	u := edgeQuery(t)
	ins := storage.MustFromAtoms([]logic.Atom{edgeAtom("a", "b")})
	var stats Stats

	var c *Cache
	c = c.WithEntry(1<<20, "k", evalEntry(t, u, ins), &stats)
	_, before := c.Usage()
	c = c.WithEntry(1<<20, "k", evalEntry(t, u, ins), &stats)
	if entries, after := c.Usage(); entries != 1 || after != before {
		t.Errorf("replacing a key gave usage (%d, %d), want (1, %d)", entries, after, before)
	}
}

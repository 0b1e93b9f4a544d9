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

// evalEntry evaluates u over ins and wraps the result as a cache entry over
// the materialization side.
func evalEntry(t *testing.T, u *query.UCQ, ins *storage.Instance) *Entry {
	t.Helper()
	ans := eval.UCQ(u, ins, eval.Options{FilterNulls: true})
	return NewEntry(ans, u, true)
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

// TestMaintainInsertMatchesReEvaluation carries a view across a suffix
// delta and checks it equals full re-evaluation over the new instance.
func TestMaintainInsertMatchesReEvaluation(t *testing.T) {
	u := edgeQuery(t)
	old := storage.MustFromAtoms([]logic.Atom{edgeAtom("a", "b"), edgeAtom("b", "c")})
	var stats Stats
	var c *Cache
	c = c.WithEntry(1<<20, "k", evalEntry(t, u, old), &stats)

	next := old.ExtendClone()
	added := []logic.Atom{edgeAtom("c", "d"), edgeAtom("d", "e")}
	for _, a := range added {
		if err := next.InsertAtom(a); err != nil {
			t.Fatal(err)
		}
	}
	c = c.MaintainInsert(MaintainInput{
		Base:   next,
		OldMat: old,
		NewMat: next,
		Added:  added,
		Budget: 1 << 20,
	}, &stats)

	got := c.Lookup("k", &stats)
	if got == nil {
		t.Fatal("maintained view missing from the successor cache")
	}
	want := eval.UCQ(u, next, eval.Options{FilterNulls: true})
	if !got.Equal(want) {
		t.Fatalf("maintained view:\n%s\nre-evaluation:\n%s", got, want)
	}
	if n := stats.DeltaMaintained.Load(); n != 1 {
		t.Errorf("deltaMaintained=%d, want 1", n)
	}
}

// TestMaintainInsertDropsViewsOfLostMaterialization asserts a view over a
// materialization the successor does not extend is dropped, not served
// stale, while a view over the unchanged base data is carried as it is.
func TestMaintainInsertDropsViewsOfLostMaterialization(t *testing.T) {
	u := edgeQuery(t)
	base := storage.MustFromAtoms([]logic.Atom{edgeAtom("a", "b")})
	var stats Stats
	var c *Cache
	c = c.WithEntry(1<<20, "mat", evalEntry(t, u, base), &stats)
	onBase := NewEntry(eval.UCQ(u, base, eval.Options{FilterNulls: true}), u, false)
	c = c.WithEntry(1<<20, "base", onBase, &stats)

	c = c.MaintainInsert(MaintainInput{Base: base, Budget: 1 << 20}, &stats)
	if got := c.Lookup("mat", &stats); got != nil {
		t.Fatal("view over a dropped materialization survived")
	}
	if got := c.Lookup("base", &stats); got != onBase.ans {
		t.Fatal("view over the unchanged base data was not carried as it is")
	}
	if n := stats.DeltaMaintained.Load(); n != 0 {
		t.Errorf("deltaMaintained=%d, want 0 (no delta join ran)", n)
	}
}

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
	ans := eval.UCQ(u, ins, eval.Options{FilterNulls: true})
	return NewEntry(ans, u, ins, ins.Mutations())
}

func TestLookupValidatesGenerationAndData(t *testing.T) {
	u := edgeQuery(t)
	ins := storage.MustFromAtoms([]logic.Atom{edgeAtom("a", "b")})
	gen := Gen{Epoch: 3, RulesEpoch: 1}
	var stats Stats
	var c *Cache
	if got := c.Lookup("k", gen, ins.Mutations(), &stats); got != nil {
		t.Fatal("nil cache returned an answer set")
	}
	c = c.WithEntry(gen, 1<<20, "k", evalEntry(t, u, ins), &stats)

	if got := c.Lookup("k", gen, ins.Mutations(), &stats); got == nil || got.Len() != 1 {
		t.Fatalf("hit on matching generation returned %v", got)
	}
	if got := c.Lookup("other", gen, ins.Mutations(), &stats); got != nil {
		t.Fatal("hit on an absent key")
	}
	if got := c.Lookup("k", Gen{Epoch: 4, RulesEpoch: 1}, ins.Mutations(), &stats); got != nil {
		t.Fatal("hit across a snapshot epoch bump")
	}
	if got := c.Lookup("k", Gen{Epoch: 3, RulesEpoch: 2}, ins.Mutations(), &stats); got != nil {
		t.Fatal("hit across a rules epoch bump")
	}
	if got := c.Lookup("k", gen, ins.Mutations()+1, &stats); got != nil {
		t.Fatal("hit across an out-of-band data mutation")
	}
	if h, m := stats.Hits.Load(), stats.Misses.Load(); h != 1 || m != 5 {
		t.Errorf("hits=%d misses=%d, want 1 and 5", h, m)
	}
}

func TestWithEntryEvictsLeastRecentlyUsed(t *testing.T) {
	u := edgeQuery(t)
	ins := storage.MustFromAtoms([]logic.Atom{edgeAtom("a", "b")})
	gen := Gen{Epoch: 1}
	var stats Stats

	one := evalEntry(t, u, ins)
	budget := 3 * one.bytes
	var c *Cache
	for i := 0; i < 3; i++ {
		c = c.WithEntry(gen, budget, fmt.Sprintf("k%d", i), evalEntry(t, u, ins), &stats)
	}
	// Touch k0 and k2 so k1 is the LRU victim when a fourth entry lands.
	c.Lookup("k0", gen, ins.Mutations(), &stats)
	c.Lookup("k2", gen, ins.Mutations(), &stats)
	c = c.WithEntry(gen, budget, "k3", evalEntry(t, u, ins), &stats)

	if got := c.Lookup("k1", gen, ins.Mutations(), &stats); got != nil {
		t.Fatal("LRU entry k1 survived eviction")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if got := c.Lookup(k, gen, ins.Mutations(), &stats); got == nil {
			t.Fatalf("recently used entry %s was evicted", k)
		}
	}
	if n := stats.Evictions.Load(); n != 1 {
		t.Errorf("evictions=%d, want 1", n)
	}
	if entries, bytes := c.Usage(gen); entries != 3 || bytes > budget {
		t.Errorf("usage=(%d, %d), want 3 entries within budget %d", entries, bytes, budget)
	}
	if entries, _ := c.Usage(Gen{Epoch: 9}); entries != 0 {
		t.Error("Usage reported entries for a retired generation")
	}
}

func TestWithEntryReplaceAdjustsBytes(t *testing.T) {
	u := edgeQuery(t)
	ins := storage.MustFromAtoms([]logic.Atom{edgeAtom("a", "b")})
	gen := Gen{Epoch: 1}
	var stats Stats

	var c *Cache
	c = c.WithEntry(gen, 1<<20, "k", evalEntry(t, u, ins), &stats)
	_, before := c.Usage(gen)
	c = c.WithEntry(gen, 1<<20, "k", evalEntry(t, u, ins), &stats)
	if entries, after := c.Usage(gen); entries != 1 || after != before {
		t.Errorf("replacing a key gave usage (%d, %d), want (1, %d)", entries, after, before)
	}
}

// TestMaintainInsertMatchesReEvaluation carries a view across a suffix
// delta and checks it equals full re-evaluation over the new instance.
func TestMaintainInsertMatchesReEvaluation(t *testing.T) {
	u := edgeQuery(t)
	old := storage.MustFromAtoms([]logic.Atom{edgeAtom("a", "b"), edgeAtom("b", "c")})
	gen := Gen{Epoch: 1}
	var stats Stats
	var c *Cache
	c = c.WithEntry(gen, 1<<20, "k", evalEntry(t, u, old), &stats)

	next := old.ExtendClone()
	added := []logic.Atom{edgeAtom("c", "d"), edgeAtom("d", "e")}
	for _, a := range added {
		if err := next.InsertAtom(a); err != nil {
			t.Fatal(err)
		}
	}
	gen2 := Gen{Epoch: 2}
	c = c.MaintainInsert(gen2, MaintainInput{
		OldMat:  old,
		NewMat:  next,
		Added:   added,
		DataMut: next.Mutations(),
		Budget:  1 << 20,
	}, &stats)

	got := c.Lookup("k", gen2, next.Mutations(), &stats)
	if got == nil {
		t.Fatal("maintained view missing under the new generation")
	}
	want := eval.UCQ(u, next, eval.Options{FilterNulls: true})
	if !got.Equal(want) {
		t.Fatalf("maintained view:\n%s\nre-evaluation:\n%s", got, want)
	}
	if n := stats.DeltaMaintained.Load(); n != 1 {
		t.Errorf("deltaMaintained=%d, want 1", n)
	}
}

// TestMaintainInsertDropsUnrelatedInstance asserts a view pinned to an
// instance the mutation did not extend is dropped, not served stale.
func TestMaintainInsertDropsUnrelatedInstance(t *testing.T) {
	u := edgeQuery(t)
	old := storage.MustFromAtoms([]logic.Atom{edgeAtom("a", "b")})
	other := storage.MustFromAtoms([]logic.Atom{edgeAtom("x", "y")})
	gen := Gen{Epoch: 1}
	var stats Stats
	var c *Cache
	c = c.WithEntry(gen, 1<<20, "k", evalEntry(t, u, other), &stats)

	next := old.ExtendClone()
	if err := next.InsertAtom(edgeAtom("b", "c")); err != nil {
		t.Fatal(err)
	}
	c = c.MaintainInsert(Gen{Epoch: 2}, MaintainInput{
		OldMat:  old,
		NewMat:  next,
		Added:   []logic.Atom{edgeAtom("b", "c")},
		DataMut: next.Mutations(),
		Budget:  1 << 20,
	}, &stats)
	if c != nil {
		t.Fatal("view pinned to an unrelated instance survived maintenance")
	}
}

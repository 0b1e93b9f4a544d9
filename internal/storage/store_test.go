package storage

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/logic"
)

func factStrings(ins *Instance) []string {
	var out []string
	for _, a := range ins.Atoms() {
		out = append(out, a.String())
	}
	slices.Sort(out)
	return out
}

// TestStoreContract runs the same script over the P = 1 store (a plain
// Instance) and over P = 3: every fact lives in exactly the partition Route
// names, relations stay aligned across partitions, a Fork never writes through
// to its parent, a shard merge yields exactly the new facts, and Flatten gives
// back one instance holding everything.
func TestStoreContract(t *testing.T) {
	src := NewInstance()
	for i := 0; i < 20; i++ {
		k := logic.NewConst(fmt.Sprintf("k%d", i))
		src.InsertAtom(logic.NewAtom("r", k, logic.NewConst("v")))
		src.InsertAtom(logic.NewAtom("unary", k))
	}
	for _, p := range []int{1, 3} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			store, err := NewStore(src, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			if store.NumParts() != p || store.Size() != src.Size() {
				t.Fatalf("NumParts=%d Size=%d, want %d and %d", store.NumParts(), store.Size(), p, src.Size())
			}
			if got, want := factStrings(Flatten(store)), factStrings(src); !slices.Equal(got, want) {
				t.Fatalf("Flatten lost or invented facts:\ngot  %v\nwant %v", got, want)
			}
			for _, a := range src.Atoms() {
				for i := 0; i < p; i++ {
					if got, want := store.Part(i).ContainsAtom(a), i == store.Route(a); got != want {
						t.Errorf("%v in partition %d: %v, Route says %d", a, i, got, store.Route(a))
					}
				}
			}

			fork := store.Fork()
			fresh := logic.NewAtom("s", logic.NewConst("k1"), logic.NewConst("w"))
			if added, err := fork.Insert(fresh); err != nil || !added {
				t.Fatalf("Insert into the fork: added=%v err=%v", added, err)
			}
			for i := 0; i < p; i++ {
				if fork.Part(i).Relation("s") == nil {
					t.Errorf("first-use predicate missing from partition %d: alignment broken", i)
				}
			}
			if !fork.Remove(logic.NewAtom("unary", logic.NewConst("k2"))) {
				t.Error("Remove of a stored fact reported absent")
			}
			if store.Size() != src.Size() || store.Part(0).Relation("s") != nil {
				t.Error("mutating a Fork wrote through to its parent")
			}

			home := fork.Route(fresh)
			shard := NewShard()
			shard.Insert(fresh) // already stored: must not reach the delta
			again := logic.NewAtom("s", logic.NewConst("k1"), logic.NewConst("x"))
			shard.Insert(again)
			delta, err := fork.MergeShardsPart(home, shard)
			if err != nil {
				t.Fatal(err)
			}
			if delta.Size() != 1 || !delta.ContainsAtom(again) || !fork.Part(home).ContainsAtom(again) {
				t.Errorf("merge delta = %v, want exactly %v, stored in partition %d", delta, again, home)
			}
		})
	}
	if _, ok := Store(src).(*Instance); !ok || src.Part(0) != src || Flatten(src) != src {
		t.Error("an Instance must be its own zero-copy single-partition store")
	}
}

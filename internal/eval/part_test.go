package eval

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/logic"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/storage"
)

// rendered returns the answer set in the oracle's form (naive.Answers).
func rendered(ans *Answers) []string { return naive.RenderAll(ans.Tuples()) }

// randInstance builds a pseudo-random multi-relation instance with enough
// rows and value skew to exercise index probes and scans.
func randInstance(t *testing.T, rng *rand.Rand, rows int) *storage.Instance {
	t.Helper()
	ins := storage.NewInstance()
	for i := 0; i < rows; i++ {
		a := c(fmt.Sprintf("a%d", rng.Intn(rows/4+1)))
		b := c(fmt.Sprintf("b%d", rng.Intn(rows/8+1)))
		x := c(fmt.Sprintf("x%d", rng.Intn(rows/2+1)))
		if err := ins.InsertAtom(at("r", a, b)); err != nil {
			t.Fatal(err)
		}
		if err := ins.InsertAtom(at("s", b, x, a)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := ins.InsertAtom(at("u", a)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ins
}

var partQueries = []struct {
	name string
	q    *query.CQ
}{
	{"atomic", query.MustNew(at("q", v("X"), v("Y")), []logic.Atom{at("r", v("X"), v("Y"))})},
	{"join", query.MustNew(at("q", v("X"), v("Z")),
		[]logic.Atom{at("r", v("X"), v("Y")), at("s", v("Y"), v("Z"), v("X"))})},
	{"boundconst", query.MustNew(at("q", v("Y")), []logic.Atom{at("r", c("a1"), v("Y"))})},
	{"repeated", query.MustNew(at("q", v("X")), []logic.Atom{at("s", v("B"), v("X"), v("X")), at("r", v("X"), v("B"))})},
	{"triangle", query.MustNew(at("q", v("A")),
		[]logic.Atom{at("u", v("A")), at("r", v("A"), v("B")), at("s", v("B"), v("X"), v("A"))})},
}

// TestPartitionedEquivalence checks that evaluation returns exactly the
// nested-loop oracle's answers for every P (1 being the plain instance),
// routing column and parallelism.
func TestPartitionedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ins := randInstance(t, rng, 240)
	for _, tc := range partQueries {
		u := query.MustNewUCQ(tc.q)
		want := naive.Answers(u, ins.Atoms())
		for _, p := range []int{1, 2, 4} {
			for _, col := range []int{0, 1} {
				store, err := storage.NewStore(ins, p, col)
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range []int{1, 3} {
					got, err := RunPlansCtx(context.Background(), CompileUCQ(u, store, PlannerDefault, JoinDefault), tc.q.Arity(), store, Options{Parallelism: par})
					if err != nil {
						t.Fatal(err)
					}
					if g := rendered(got); !slices.Equal(g, want) {
						t.Fatalf("%s P=%d col=%d par=%d: got %d answers, oracle %d\ngot:    %v\noracle: %v",
							tc.name, p, col, par, len(g), len(want), g, want)
					}
				}
			}
		}
	}
}

// TestPartitionPruningCounter checks that a query binding the partitioning
// column probes exactly one sub-instance and reports it — and that a single
// partition never reports pruning, since there is nothing to prune.
func TestPartitionPruningCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ins := randInstance(t, rng, 200)
	pins, err := storage.Partition(ins, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	bound := query.MustNewUCQ(query.MustNew(at("q", v("Y")), []logic.Atom{at("r", c("a1"), v("Y"))}))
	free := query.MustNewUCQ(query.MustNew(at("q", v("X"), v("Y")), []logic.Atom{at("r", v("X"), v("Y"))}))
	run := func(u *query.UCQ, store storage.Store) uint64 {
		t.Helper()
		var pruned atomic.Uint64
		got, err := RunPlansCtx(context.Background(), CompileUCQ(u, store, PlannerDefault, JoinDefault), u.Arity(), store, Options{Pruned: &pruned})
		if err != nil {
			t.Fatal(err)
		}
		if g, want := rendered(got), naive.Answers(u, ins.Atoms()); !slices.Equal(g, want) {
			t.Fatalf("answers differ from the oracle: got %v want %v", g, want)
		}
		return pruned.Load()
	}
	if run(bound, pins) == 0 {
		t.Fatal("bound partitioning column did not prune any probe")
	}
	// An unbound partitioning column must not count pruned probes on the
	// atom that leaves it free.
	if n := run(free, pins); n != 0 {
		t.Fatalf("free partitioning column counted %d pruned probes", n)
	}
	if n := run(bound, ins); n != 0 {
		t.Fatalf("a single partition counted %d pruned probes", n)
	}
}

// TestStreamOverPartitions checks the pull iterator over a P = 3 store
// against the oracle, order-insensitively.
func TestStreamOverPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ins := randInstance(t, rng, 150)
	pins, err := storage.Partition(ins, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	u := query.MustNewUCQ(partQueries[1].q)
	s := NewStream(CompileUCQ(u, pins, PlannerDefault, JoinDefault), u.Arity(), pins, Options{})
	got := NewAnswers(u.Arity())
	for {
		tup, ok, err := s.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got.AddOwned(tup)
	}
	if g, want := rendered(got), naive.Answers(u, ins.Atoms()); !slices.Equal(g, want) {
		t.Fatalf("stream answers differ: got %d, oracle %d", len(g), len(want))
	}
}

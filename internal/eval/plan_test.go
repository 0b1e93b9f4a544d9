package eval

import (
	"fmt"
	"testing"

	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/storage"
)

// statsFixture builds an instance with known per-column cardinalities:
//
//	r/2: 1000 tuples, column 0 has 1000 distinct values (a key), column 1
//	     has 10 distinct values;
//	s/1: 100 tuples, all distinct;
//	t/2: 200 tuples, column 0 has 2 distinct values, column 1 has 200.
func statsFixture(t *testing.T) *storage.Instance {
	t.Helper()
	ins := storage.NewInstance()
	for i := 0; i < 1000; i++ {
		mustInsert(t, ins, at("r", c(fmt.Sprintf("k%d", i)), c(fmt.Sprintf("g%d", i%10))))
	}
	for i := 0; i < 100; i++ {
		mustInsert(t, ins, at("s", c(fmt.Sprintf("g%d", i))))
	}
	for i := 0; i < 200; i++ {
		mustInsert(t, ins, at("t", c(fmt.Sprintf("b%d", i%2)), c(fmt.Sprintf("u%d", i))))
	}
	return ins
}

func mustInsert(t *testing.T, ins *storage.Instance, a logic.Atom) {
	t.Helper()
	if err := ins.InsertAtom(a); err != nil {
		t.Fatal(err)
	}
}

// TestCostPlanOrdersBySelectivity: with a constant probing r's key column,
// the cost planner runs r first (estimated cardinality 1000/1000 = 1) and
// joins s through the bound variable, even though s is the smaller relation.
// Both access the planned index columns.
func TestCostPlanOrdersBySelectivity(t *testing.T) {
	ins := statsFixture(t)
	q := query.MustNew(at("q", v("X")),
		[]logic.Atom{at("s", v("X")), at("r", c("k7"), v("X"))})

	cost := CompileCQ(q, ins, PlannerDefault, JoinDefault).Access()
	if len(cost) != 2 || cost[0].Pred != "r" || cost[1].Pred != "s" {
		t.Fatalf("cost order = %+v, want r before s", cost)
	}
	if cost[0].Index != 0 {
		t.Errorf("cost r access = col %d, want the key column 0", cost[0].Index)
	}
	if cost[1].Index != 0 {
		t.Errorf("cost s access = col %d, want probe on the bound variable", cost[1].Index)
	}
}

// TestAccessPathPicksMostDistinctColumn: when several columns of an atom are
// bound, the probe goes through the column with the most distinct values —
// the shortest expected posting list.
func TestAccessPathPicksMostDistinctColumn(t *testing.T) {
	ins := statsFixture(t)
	// Both columns of t are bound constants; column 1 (200 distinct) beats
	// column 0 (2 distinct).
	q := query.MustNew(at("q"), []logic.Atom{at("t", c("b0"), c("u4"))})
	acc := CompileCQ(q, ins, PlannerDefault, JoinDefault).Access()
	if acc[0].Index != 1 {
		t.Fatalf("access = col %d, want the 200-distinct column 1", acc[0].Index)
	}

	// Join binding both columns of t: X (2 distinct at col 0), Y (200
	// distinct at col 1) — probe col 1 again.
	q2 := query.MustNew(at("q", v("X"), v("Y")),
		[]logic.Atom{
			at("t", v("X"), v("Y")),
			at("t", v("X"), v("Y")), // self-join: second occurrence fully bound
		})
	acc2 := CompileCQ(q2, ins, PlannerDefault, JoinDefault).Access()
	if acc2[1].Index != 1 {
		t.Fatalf("self-join access = col %d, want column 1", acc2[1].Index)
	}
}

// TestScanWhenNothingBound: an atom with no bound columns scans.
func TestScanWhenNothingBound(t *testing.T) {
	ins := statsFixture(t)
	q := query.MustNew(at("q", v("X")), []logic.Atom{at("s", v("X"))})
	if acc := CompileCQ(q, ins, PlannerDefault, JoinDefault).Access(); acc[0].Index != -1 {
		t.Errorf("access = col %d, want scan (-1)", acc[0].Index)
	}
}

// TestDeltaPlanSeedsBindings: a delta plan pins one body atom to the seed
// tuple; the remaining atoms see its variables as bound and probe them.
func TestDeltaPlanSeedsBindings(t *testing.T) {
	ins := statsFixture(t)
	body := []logic.Atom{at("r", v("X"), v("Y")), at("s", v("Y"))}
	plan := CompileDelta(body, 0, ins, PlannerDefault, JoinDefault)
	acc := plan.Access()
	if len(acc) != 1 || acc[0].Pred != "s" || acc[0].Index != 0 {
		t.Fatalf("delta plan access = %+v, want s probed on its only column", acc)
	}

	r := plan.NewRunner()
	if !r.Bind(ins) {
		t.Fatal("Bind failed")
	}
	matches := 0
	r.RunTuple(storage.Tuple{c("k7"), c("g7")}, func(regs []logic.Term) bool {
		matches++
		return true
	})
	if matches != 1 {
		t.Fatalf("seeded matches = %d, want 1 (g7 is in s)", matches)
	}
	matches = 0
	// g900 is not in s: the join from this seed must fail.
	r.RunTuple(storage.Tuple{c("k900"), c("g900")}, func(regs []logic.Term) bool {
		matches++
		return true
	})
	if matches != 0 {
		t.Fatalf("seeded matches = %d, want 0", matches)
	}
}

// TestDeltaPlanRepeatedVariableAndConstant: the seed micro-program must
// reproduce unification — repeated variables check consistency, constants
// check equality.
func TestDeltaPlanRepeatedVariableAndConstant(t *testing.T) {
	ins := inst(at("e", c("a"), c("a")), at("p", c("a")))
	body := []logic.Atom{at("e", v("X"), v("X")), at("p", v("X"))}
	plan := CompileDelta(body, 0, ins, PlannerDefault, JoinDefault)
	r := plan.NewRunner()
	if !r.Bind(ins) {
		t.Fatal("Bind failed")
	}
	n := 0
	r.RunTuple(storage.Tuple{c("a"), c("a")}, func([]logic.Term) bool { n++; return true })
	if n != 1 {
		t.Fatalf("consistent seed: %d matches, want 1", n)
	}
	n = 0
	r.RunTuple(storage.Tuple{c("a"), c("b")}, func([]logic.Term) bool { n++; return true })
	if n != 0 {
		t.Fatalf("inconsistent repeated variable must not match, got %d", n)
	}

	bodyConst := []logic.Atom{at("e", c("a"), v("Y")), at("p", v("Y"))}
	planC := CompileDelta(bodyConst, 0, ins, PlannerDefault, JoinDefault)
	rc := planC.NewRunner()
	if !rc.Bind(ins) {
		t.Fatal("Bind failed")
	}
	n = 0
	rc.RunTuple(storage.Tuple{c("b"), c("a")}, func([]logic.Term) bool { n++; return true })
	if n != 0 {
		t.Fatalf("constant mismatch in seed must not match, got %d", n)
	}
}

// TestEmptyRelationFirst: an atom over an absent relation gets cost 0 and
// runs first — it prunes the whole enumeration immediately.
func TestEmptyRelationFirst(t *testing.T) {
	ins := statsFixture(t)
	q := query.MustNew(at("q", v("X")),
		[]logic.Atom{at("r", v("X"), v("Y")), at("nope", v("X"))})
	acc := CompileCQ(q, ins, PlannerDefault, JoinDefault).Access()
	if acc[0].Pred != "nope" {
		t.Fatalf("order = %+v, want the empty relation first", acc)
	}
	if CQ(q, ins, Options{}).Len() != 0 {
		t.Fatal("query over an absent relation must have no answers")
	}
}

// TestPlanSlots: Slots maps body variables to registers, and register
// contents at yield time are the variable bindings.
func TestPlanSlots(t *testing.T) {
	ins := inst(at("r", c("a"), c("b")))
	body := []logic.Atom{at("r", v("X"), v("Y"))}
	plan := CompileBody(body, ins, nil, PlannerDefault, JoinDefault)
	slots := plan.Slots([]logic.Term{v("X"), v("Y"), v("Z")})
	if slots[0] < 0 || slots[1] < 0 || slots[2] != -1 {
		t.Fatalf("Slots = %v", slots)
	}
	r := plan.NewRunner()
	if !r.Bind(ins) {
		t.Fatal("Bind failed")
	}
	r.Run(func(regs []logic.Term) bool {
		if regs[slots[0]] != c("a") || regs[slots[1]] != c("b") {
			t.Errorf("regs = %v", regs)
		}
		return true
	})
}

// TestCompileOnForkIsSizeIndependent: compiling a plan over a freshly forked
// and written relation costs the same allocations whatever the relation's
// size. Planning reads only per-column distinct counts, which the fork's
// copied index already holds; a statistic rebuilt from the tuples on every
// fork would put relation-sized work on each mutation's critical path.
func TestCompileOnForkIsSizeIndependent(t *testing.T) {
	const runs = 4
	body := []logic.Atom{at("r", v("X"), v("Y"))}
	seed := []logic.Term{v("X"), v("Y")}
	compileAllocs := func(rows int) float64 {
		base := storage.NewInstance()
		for i := 0; i < rows; i++ {
			mustInsert(t, base, at("r", c(fmt.Sprintf("a%d", i%50)), c(fmt.Sprintf("b%d", i))))
		}
		base.EnsureIndexes()
		// One owned fork per call (AllocsPerRun adds a warm-up call), so no
		// call can reuse anything a previous one built on its fork.
		forks := make([]*storage.Instance, runs+1)
		for i := range forks {
			forks[i] = base.ExtendClone()
			mustInsert(t, forks[i], at("r", c("new"), c(fmt.Sprintf("n%d", i))))
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			CompileBody(body, forks[next], seed, PlannerDefault, JoinDefault)
			next++
		})
	}
	if small, large := compileAllocs(500), compileAllocs(5000); small != large {
		t.Fatalf("compile on a fork allocates %.1f times at 500 rows and %.1f at 5000, want equal", small, large)
	}
}

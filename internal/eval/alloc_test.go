package eval

import (
	"fmt"
	"testing"

	"repro/internal/logic"
	"repro/internal/storage"
)

// TestSeededJoinStepAllocationFree asserts the acceptance criterion of the
// compiled executor: a seeded join step — the chase's per-delta-fact hot
// path — performs zero per-binding allocations. The runner's register file
// and cursors are allocated once; RunTuple, the index probes and the
// check/bind micro-programs must not allocate at all.
func TestSeededJoinStepAllocationFree(t *testing.T) {
	ins := storage.NewInstance()
	for i := 0; i < 200; i++ {
		mustInsert(t, ins, at("a", c(fmt.Sprintf("x%d", i)), c(fmt.Sprintf("y%d", i%20))))
		mustInsert(t, ins, at("b", c(fmt.Sprintf("y%d", i%20)), c(fmt.Sprintf("z%d", i%5))))
	}
	mustInsert(t, ins, at("g", c("z1")))
	ins.EnsureIndexes()

	body := []logic.Atom{
		at("a", v("X"), v("Y")),
		at("b", v("Y"), v("Z")),
		at("g", v("Z")),
	}
	plan := CompileDelta(body, 0, ins, PlannerDefault, JoinDefault)
	r := plan.NewRunner()
	if !r.Bind(ins) {
		t.Fatal("Bind failed")
	}
	tuples := ins.Relation("a").Tuples()
	matches := 0
	yield := func(regs []logic.Term) bool { matches++; return true }

	// Warm up once (and sanity-check the join finds matches at all).
	for _, tu := range tuples {
		r.RunTuple(tu, yield)
	}
	if matches == 0 {
		t.Fatal("join found no matches; fixture broken")
	}

	avg := testing.AllocsPerRun(100, func() {
		for _, tu := range tuples {
			r.RunTuple(tu, yield)
		}
	})
	if avg != 0 {
		t.Fatalf("seeded join step allocates %.1f times per run, want 0", avg)
	}

	// The Subst-seeded path (head-satisfaction checks) is equally clean.
	headPlan := CompileBody([]logic.Atom{at("b", v("Y"), v("Z"))}, ins, []logic.Term{v("Y")}, PlannerDefault, JoinDefault)
	hr := headPlan.NewRunner()
	if !hr.Bind(ins) {
		t.Fatal("Bind failed")
	}
	seed := logic.Subst{v("Y"): c("y3")}
	hit := func(regs []logic.Term) bool { return false }
	avg = testing.AllocsPerRun(100, func() {
		hr.SeedSubst(seed)
		hr.Run(hit)
	})
	if avg != 0 {
		t.Fatalf("subst-seeded step allocates %.1f times per run, want 0", avg)
	}
}

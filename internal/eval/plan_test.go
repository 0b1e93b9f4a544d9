package eval

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/storage"
)

// planFixture builds an instance of three relations of different sizes:
//
//	r/2: (k_i, g_{i mod 10}) for i < 1000;
//	s/1: g_i for i < 100;
//	t/2: (b_{i mod 2}, u_i) for i < 200.
func planFixture(t *testing.T) *storage.Instance {
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

// TestPatternOrderMostKnownPositions: the planner reads no statistics. At
// each step it runs the first remaining atom with the most known argument
// positions, so r(k7, X) (one constant) runs before s(X) although s is the
// smaller relation, and s then probes the variable r bound. With no known
// position anywhere, body order decides, and a seed variable counts as
// known.
func TestPatternOrderMostKnownPositions(t *testing.T) {
	q := query.MustNew(at("q", v("X")),
		[]logic.Atom{at("s", v("X")), at("r", c("k7"), v("X"))})
	if got, want := render(CompileCQ(q).Access()), "r@0 s@0"; got != want {
		t.Errorf("constant first: access %s, want %s", got, want)
	}

	body := []logic.Atom{at("s", v("Y")), at("t", v("X"), v("Y")), at("r", v("X"), v("Z"))}
	if got, want := render(CompileBody(body, nil).Access()), "s@- t@1 r@0"; got != want {
		t.Errorf("body order on ties: access %s, want %s", got, want)
	}
	if got, want := render(CompileBody(body, []logic.Term{v("Z")}).Access()), "r@1 t@0 s@0"; got != want {
		t.Errorf("seeded Z: access %s, want %s", got, want)
	}

	// Two known positions beat one, whatever the sizes.
	q2 := query.MustNew(at("q"), []logic.Atom{at("s", c("g1")), at("t", c("b0"), c("u4"))})
	if got, want := render(CompileCQ(q2).Access()), "t@0 s@0"; got != want {
		t.Errorf("most known first: access %s, want %s", got, want)
	}
}

// render prints a plan's access paths as pred@col, with @- for a scan.
func render(acc []AtomAccess) string {
	parts := make([]string, len(acc))
	for i, a := range acc {
		if a.Index < 0 {
			parts[i] = a.Pred + "@-"
		} else {
			parts[i] = fmt.Sprintf("%s@%d", a.Pred, a.Index)
		}
	}
	return strings.Join(parts, " ")
}

// TestAccessPathProbesFirstKnownColumn: when several columns of an atom are
// known, the probe goes through the first of them; the others are checked
// by the micro-program.
func TestAccessPathProbesFirstKnownColumn(t *testing.T) {
	ins := planFixture(t)
	q := query.MustNew(at("q"), []logic.Atom{at("t", c("b0"), c("u4"))})
	if acc := CompileCQ(q).Access(); acc[0].Index != 0 {
		t.Fatalf("access = col %d, want the first known column 0", acc[0].Index)
	}
	if !Holds(q, ins, Options{}) {
		t.Error("t(b0, u4) holds in the fixture")
	}

	// Self-join binding both columns of t: the second occurrence probes
	// column 0 and checks column 1.
	q2 := query.MustNew(at("q", v("X"), v("Y")),
		[]logic.Atom{at("t", v("X"), v("Y")), at("t", v("X"), v("Y"))})
	if got, want := render(CompileCQ(q2).Access()), "t@- t@0"; got != want {
		t.Fatalf("self-join access %s, want %s", got, want)
	}
	if n := CQ(q2, ins, Options{}).Len(); n != 200 {
		t.Errorf("self-join answers = %d, want 200", n)
	}

	// A constant after an unknown variable: the constant's column is probed.
	q3 := query.MustNew(at("q", v("X")), []logic.Atom{at("r", v("X"), c("g3"))})
	if got, want := render(CompileCQ(q3).Access()), "r@1"; got != want {
		t.Fatalf("access %s, want %s", got, want)
	}
	if n := CQ(q3, ins, Options{}).Len(); n != 100 {
		t.Errorf("r(X, g3) answers = %d, want 100", n)
	}
}

// TestScanWhenNothingBound: an atom with no bound columns scans.
func TestScanWhenNothingBound(t *testing.T) {
	q := query.MustNew(at("q", v("X")), []logic.Atom{at("s", v("X"))})
	if acc := CompileCQ(q).Access(); acc[0].Index != -1 {
		t.Errorf("access = col %d, want scan (-1)", acc[0].Index)
	}
}

// TestDeltaPlanSeedsBindings: a delta plan pins one body atom to the seed
// tuple; the remaining atoms see its variables as bound and probe them.
func TestDeltaPlanSeedsBindings(t *testing.T) {
	ins := planFixture(t)
	body := []logic.Atom{at("r", v("X"), v("Y")), at("s", v("Y"))}
	plan := CompileDelta(body, 0)
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
	plan := CompileDelta(body, 0)
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
	planC := CompileDelta(bodyConst, 0)
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

// TestEmptyRelationFailsBind: a plan over an absent relation, or over a
// present but empty one, does not bind, wherever the pattern order put that
// atom, so the enumeration is pruned before it starts and the query has no
// answers.
func TestEmptyRelationFailsBind(t *testing.T) {
	ins := planFixture(t)
	mustInsert(t, ins, at("gone", c("x")))
	ins.Relation("gone").Remove(storage.Tuple{c("x")})
	for _, empty := range []string{"nope", "gone"} {
		for _, body := range [][]logic.Atom{
			{at(empty, v("X")), at("r", v("X"), v("Y"))},
			{at("r", v("X"), v("Y")), at(empty, v("X"))},
		} {
			q := query.MustNew(at("q", v("X")), body)
			if CompileCQ(q).NewRunner().Bind(ins) {
				t.Errorf("%v: Bind = true over the empty relation %s", q, empty)
			}
			if CQ(q, ins, Options{}).Len() != 0 {
				t.Errorf("%v: query over the empty relation %s must have no answers", q, empty)
			}
		}
	}
}

// TestPlanSlots: Slots maps body variables to registers, and register
// contents at yield time are the variable bindings.
func TestPlanSlots(t *testing.T) {
	ins := inst(at("r", c("a"), c("b")))
	body := []logic.Atom{at("r", v("X"), v("Y"))}
	plan := CompileBody(body, nil)
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

// TestCompileOnForkIsSizeIndependent: compiling a plan and binding it to a
// freshly forked and written relation costs the same allocations whatever
// the relation's size. Planning reads no store, and Bind reads only each
// relation's length; a statistic rebuilt from the tuples on every fork would
// put relation-sized work on each mutation's critical path.
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
			if !CompileBody(body, seed).NewRunner().Bind(forks[next]) {
				t.Fatal("Bind failed on a non-empty fork")
			}
			next++
		})
	}
	if small, large := compileAllocs(500), compileAllocs(5000); small != large {
		t.Fatalf("compile and bind on a fork allocate %.1f times at 500 rows and %.1f at 5000, want equal", small, large)
	}
}

// TestPatternPlans pins the plans the pattern order gives the University
// rules (every delta plan, "|"-separated in body order, then the head plan)
// and the query shapes of the answer_scan and serve_read_zipf benchmark
// workloads. A plan is a function of the pattern, so the table needs no
// data.
func TestPatternPlans(t *testing.T) {
	rules := map[string][2]string{
		"U1": {"", "professor@0"}, "U2": {"", "professor@0"},
		"U3": {"", "faculty@0"}, "U4": {"", "faculty@0"},
		"U5": {"", "employee@0"}, "U6": {"", "student@0"},
		"U7": {"", "student@0"}, "U8": {"", "person@0"},
		"U9": {"", "person@0"}, "U10": {"", "faculty@0"},
		"U11": {"", "course@0"}, "U12": {"", "student@0"},
		"U13": {"", "course@0"}, "U14": {"", "student@0"},
		"U15": {"", "professor@0"}, "U16": {"", "employee@0"},
		"U17": {"", "department@0"}, "U18": {"", "teacherOf@0"},
		"U19": {"", "advisor@0"}, "U20": {"", "worksFor@0"},
		"U21": {"", "subOrganizationOf@0 university@0"},
		"U22": {"teacherOf@1|takesCourse@1", "taughtBy@0"},
	}
	set := datagen.University()
	if len(set.Rules) != len(rules) {
		t.Fatalf("University has %d rules, the table %d", len(set.Rules), len(rules))
	}
	for _, r := range set.Rules {
		deltas := make([]string, len(r.Body))
		for bi := range r.Body {
			deltas[bi] = render(CompileDelta(r.Body, bi).Access())
		}
		got := [2]string{strings.Join(deltas, "|"), render(CompileBody(r.Head, r.Distinguished()).Access())}
		if got != rules[r.Label] {
			t.Errorf("%s: delta %q, head %q; want %q", r.Label, got[0], got[1], rules[r.Label])
		}
	}

	queries := []struct{ src, want string }{
		// answer_scan
		{"q(S, P) :- taughtBy(S, P) .", "taughtBy@-"},
		{"q(S, P, D) :- advisor(S, P), worksFor(P, D) .", "advisor@- worksFor@0"},
		{"q(X, C) :- faculty(X), teacherOf(X, C) .", "faculty@- teacherOf@0"},
		{"q(C, D) :- teacherOf(P, C), worksFor(P, D) .", "teacherOf@- worksFor@0"},
		{"q(X) :- employee(X) .", "employee@-"},
		// serve_read_zipf
		{"q(X) :- worksFor(X, dept3) .", "worksFor@1"},
		{"q(C) :- takesCourse(student3_2, C) .", "takesCourse@0"},
		{"q(X, C) :- worksFor(X, dept3), teacherOf(X, C) .", "worksFor@1 teacherOf@0"},
		{"q(S) :- taughtBy(S, prof3_1) .", "taughtBy@1"},
	}
	for _, tc := range queries {
		pq := parser.MustParseQuery(tc.src)
		if got := render(CompileCQ(query.MustNew(pq.Head, pq.Body)).Access()); got != tc.want {
			t.Errorf("%s: access %s, want %s", tc.src, got, tc.want)
		}
	}
}

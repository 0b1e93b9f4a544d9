package chase

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/storage"
)

// TestDeleteIncrementalEqualsScratch is the deletion-correctness property at
// the engine level: chasing the full data and then deleting random chunks of
// base facts — with AddFact-style Extend calls interleaved — must leave the
// same null-free fact set as a from-scratch chase of the surviving base
// facts. The re-derivation goes through the head-unification seeds.
func TestDeleteIncrementalEqualsScratch(t *testing.T) {
	families := []datagen.Family{
		datagen.FamilyLinear, datagen.FamilyMultilinear,
		datagen.FamilySticky, datagen.FamilyChain,
	}
	for _, fam := range families {
		for seed := int64(1); seed <= 4; seed++ {
			for _, par := range parLegs {
				name := fmt.Sprintf("%v/seed=%d/restricted/par=%d", fam, seed, par)
				t.Run(name, func(t *testing.T) {
					rules := datagen.Rules(datagen.Config{Family: fam, Rules: 6, Seed: seed})
					data := datagen.Instance(rules, 25, 8, seed)
					opts := Options{MaxRounds: 60, MaxSteps: 40000, Parallelism: par}

					base := data.Atoms()
					rng := rand.New(rand.NewSource(seed * 104729))
					rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })

					st := NewState(opts)
					ins := data.Clone()
					res := st.Resume(rules, ins, ins)
					if !res.Terminated {
						t.Skip("initial chase truncated; nothing exact to compare")
					}

					// Delete the first half of the shuffled base in a few
					// chunks, keeping a mirror of the surviving base.
					remaining := base[len(base)/2:]
					doomed := base[:len(base)/2]
					baseIns := storage.MustFromAtoms(base)
					for len(doomed) > 0 {
						n := 1 + rng.Intn(4)
						if n > len(doomed) {
							n = len(doomed)
						}
						for _, f := range doomed[:n] {
							baseIns.Remove(f)
						}
						dres, err := st.Delete(rules, ins, doomed[:n], baseIns)
						if err != nil {
							t.Fatal(err)
						}
						if !dres.Result.Terminated {
							t.Fatal("re-derivation truncated under the scratch budget")
						}
						doomed = doomed[n:]
					}

					scratch := Run(rules, storage.MustFromAtoms(remaining), opts)
					if !scratch.Terminated {
						t.Fatal("scratch chase of the survivors truncated")
					}
					if sf, inf := constFacts(scratch.Instance), constFacts(ins); sf != inf {
						t.Errorf("null-free facts differ after deletions:\nscratch:\n%s\nincremental:\n%s", sf, inf)
					}
				})
			}
		}
	}
}

// TestDeleteRederivesBlockedTrigger: deleting the fact that blocked a
// trigger must make that trigger fire. The restricted chase never fired the
// blocked trigger, so it has no null-table entry and over-deletion skips it;
// re-derivation finds it only by unifying the removed blocker with the rule
// head. The blocker is a base fact in one case and derived (through a
// rule whose body fact is deleted) in the other.
func TestDeleteRederivesBlockedTrigger(t *testing.T) {
	a, b := c("a"), c("b")
	cases := []struct {
		name   string
		rules  string
		base   []logic.Atom
		doomed logic.Atom
	}{
		{"base-blocker", `p(X) -> q(X,Y) .`,
			[]logic.Atom{at("p", a), at("q", a, b)}, at("q", a, b)},
		// t(a) reaches p(a) one round after s(a) has derived q(a,b), so the
		// p trigger meets a derived blocker.
		{"derived-blocker", `t(X) -> p(X) . p(X) -> q(X,Y) . s(X) -> q(X,b) .`,
			[]logic.Atom{at("t", a), at("s", a)}, at("s", a)},
	}
	pq := parser.MustParseQuery(`ans(X) :- q(X,Y) .`)
	u := query.MustNewUCQ(query.MustNew(pq.Head, pq.Body))
	for _, tc := range cases {
		for _, par := range parLegs {
			t.Run(fmt.Sprintf("%s/par=%d", tc.name, par), func(t *testing.T) {
				rules := parser.MustParseRules(tc.rules)
				baseIns := storage.MustFromAtoms(tc.base)
				st := NewState(Options{Parallelism: par})
				ins := baseIns.Clone()
				if res := st.Resume(rules, ins, ins); !res.Terminated || res.NullsCreated != 0 {
					t.Fatalf("initial chase: terminated=%v nulls=%d, want a blocked trigger and no null", res.Terminated, res.NullsCreated)
				}

				baseIns.Remove(tc.doomed)
				dres, err := st.Delete(rules, ins, []logic.Atom{tc.doomed}, baseIns)
				if err != nil {
					t.Fatal(err)
				}
				if !dres.Result.Terminated || dres.Result.Steps != 1 || dres.Result.NullsCreated != 1 {
					t.Errorf("repair = %+v, want the unblocked trigger fired once with one null", dres.Result)
				}
				q := ins.Relation("q")
				if q == nil || q.Len() != 1 || q.Tuples()[0][0] != a || !q.Tuples()[0][1].IsNull() {
					t.Fatalf("q after deleting the blocker = %v, want q(a, _) with a fresh null", ins)
				}
				if ans := eval.UCQ(u, ins, eval.Options{FilterNulls: true}); ans.Len() != 1 || ans.Tuples()[0][0] != a {
					t.Errorf("ans(X) :- q(X,Y) = %v, want a", ans)
				}
				scratch := Run(rules, baseIns, Options{})
				if sf, inf := constFacts(scratch.Instance), constFacts(ins); sf != inf {
					t.Errorf("null-free facts differ:\nscratch:\n%s\nincremental:\n%s", sf, inf)
				}
			})
		}
	}
}

// TestDeleteRederivesSurvivors: a fact with two independent derivations must
// survive the deletion of one of them, and the counters must expose the
// over-delete / re-derive cycle.
func TestDeleteRederivesSurvivors(t *testing.T) {
	rules := parser.MustParseRules(`
student(X) -> person(X) .
employee(X) -> person(X) .
person(X) -> entity(X) .
`)
	d := data(
		at("student", c("dana")),
		at("employee", c("dana")),
		at("student", c("solo")),
	)
	opts := Options{}
	st := NewState(opts)
	ins := d.Clone()
	baseIns := d.Clone() // mirror of the surviving base data
	if res := st.Resume(rules, ins, ins); !res.Terminated {
		t.Fatal("chase must terminate")
	}

	// Deleting student(dana) over-deletes person(dana) and entity(dana), but
	// both must be re-derived through employee(dana).
	baseIns.Remove(at("student", c("dana")))
	dres, err := st.Delete(rules, ins, []logic.Atom{at("student", c("dana"))}, baseIns)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Requested != 1 {
		t.Errorf("Requested = %d, want 1", dres.Requested)
	}
	if dres.OverDeleted == 0 || dres.Rederived == 0 {
		t.Errorf("counters = %+v, want an over-delete/re-derive cycle", dres)
	}
	for _, a := range []logic.Atom{at("person", c("dana")), at("entity", c("dana"))} {
		if !ins.ContainsAtom(a) {
			t.Errorf("%v must survive via the employee derivation", a)
		}
	}
	if ins.ContainsAtom(at("student", c("dana"))) {
		t.Error("student(dana) must be gone")
	}

	// Deleting student(solo) takes its whole closure with it: nothing
	// re-derives person(solo).
	baseIns.Remove(at("student", c("solo")))
	dres, err = st.Delete(rules, ins, []logic.Atom{at("student", c("solo"))}, baseIns)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Rederived != 0 {
		t.Errorf("Rederived = %d, want 0", dres.Rederived)
	}
	for _, a := range []logic.Atom{at("student", c("solo")), at("person", c("solo")), at("entity", c("solo"))} {
		if ins.ContainsAtom(a) {
			t.Errorf("%v must be deleted with its closure", a)
		}
	}

	// Deleting an absent fact is a no-op.
	dres, err = st.Delete(rules, ins, []logic.Atom{at("student", c("ghost"))}, baseIns)
	if err != nil || dres.Requested != 0 || dres.Result.Steps != 0 {
		t.Errorf("absent deletion: %+v err=%v, want a no-op", dres, err)
	}
}

// TestDeleteWorkProportionalToClosure: deleting one base fact from a large
// chased instance must fire a handful of re-derivation steps, far below the
// initial materialization — the counters are the delta-proportionality claim
// of the acceptance criteria.
func TestDeleteWorkProportionalToClosure(t *testing.T) {
	rules := datagen.University()
	data := datagen.UniversityData(16, 1)
	opts := Options{}
	st := NewState(opts)
	ins := data.Clone()
	first := st.Resume(rules, ins, ins)
	if !first.Terminated {
		t.Fatal("initial chase must terminate")
	}
	if first.Steps < 100 {
		t.Fatalf("initial steps = %d; workload too small for the proportionality claim", first.Steps)
	}
	before := st.TotalSteps()

	// Pick one undergraduate and delete it: the closure is that student's
	// handful of derived memberships, not the university.
	var victim logic.Atom
	for _, a := range ins.Atoms() {
		if a.Pred == "undergraduateStudent" {
			victim = a
			break
		}
	}
	if victim.Pred == "" {
		t.Fatal("no undergraduateStudent in the generated data")
	}
	dres, err := st.Delete(rules, ins, []logic.Atom{victim}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dres.Result.Terminated {
		t.Fatal("re-derivation must terminate")
	}
	total := dres.Requested + dres.OverDeleted
	if total == 0 || total > 10 {
		t.Errorf("deleted closure = %d facts, want a handful", total)
	}
	if dres.Result.Steps > 10 {
		t.Errorf("re-derivation steps = %d, want a handful (initial run: %d)", dres.Result.Steps, first.Steps)
	}
	if got := st.TotalSteps() - before; got != dres.Result.Steps {
		t.Errorf("cumulative steps moved by %d, want the increment %d", got, dres.Result.Steps)
	}
}

// TestDeleteRequiresProvenance: a state after a truncated run must refuse
// to delete instead of silently corrupting. The name dates from the
// derivation graph every repair once needed; any untruncated state repairs.
func TestDeleteRequiresProvenance(t *testing.T) {
	rules := parser.MustParseRules(`student(X) -> person(X) .`)
	st := NewState(Options{MaxSteps: 1})
	ins := data(at("student", c("a")), at("student", c("b"))).Clone()
	if res := st.Resume(rules, ins, ins); res.Terminated {
		t.Fatal("tiny budget must truncate")
	}
	if _, err := st.Delete(rules, ins, []logic.Atom{at("student", c("a"))}, nil); err == nil {
		t.Error("Delete on a truncated state must error")
	}
}

// TestDeleteDirectSweepHonorsMaxSteps: the direct re-derivation sweep fires
// under the same MaxSteps budget as resume. Deleting ten blockers unblocks
// ten triggers; at a budget of three the sweep fires three, reports a
// truncated increment without propagating, and leaves the state truncated.
func TestDeleteDirectSweepHonorsMaxSteps(t *testing.T) {
	rules := parser.MustParseRules(`p(X) -> q(X,Y) .`)
	var facts, blockers []logic.Atom
	for i := 0; i < 10; i++ {
		a := c(fmt.Sprintf("a%d", i))
		facts = append(facts, at("p", a))
		blockers = append(blockers, at("q", a, c("b")))
	}
	baseIns := storage.MustFromAtoms(append(facts, blockers...))
	st := NewState(Options{MaxSteps: 3})
	ins := baseIns.Clone()
	if res := st.Resume(rules, ins, ins); !res.Terminated || res.Steps != 0 {
		t.Fatalf("initial chase: terminated=%v steps=%d, want every trigger blocked", res.Terminated, res.Steps)
	}
	for _, f := range blockers {
		baseIns.Remove(f)
	}
	dres, err := st.Delete(rules, ins, blockers, baseIns)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Result.Terminated || dres.Result.Steps != 3 || dres.Result.NullsCreated != 3 {
		t.Errorf("repair = %+v, want 3 firings and Terminated false", dres.Result)
	}
	if q := ins.Relation("q"); q == nil || q.Len() != 3 {
		t.Errorf("q after the truncated repair = %v, want the 3 fired heads", ins)
	}
	if !st.Truncated() {
		t.Error("a repair that ran out of budget must leave the state truncated")
	}
	if _, err := st.Delete(rules, ins, facts[:1], nil); err == nil {
		t.Error("a truncated state accepted another incremental deletion")
	}

	// A sweep that stays inside the budget leaves the propagation only the
	// rest of it: two sweep firings and two propagation firings overrun a
	// budget of three.
	rules = parser.MustParseRules(`p(X) -> q(X,Y) . q(X,Y) -> r(X,Y) .`)
	baseIns = storage.MustFromAtoms(append(facts[:2:2], blockers[:2]...))
	st = NewState(Options{MaxSteps: 3})
	ins = baseIns.Clone()
	if res := st.Resume(rules, ins, ins); !res.Terminated || res.Steps != 2 {
		t.Fatalf("initial chase: terminated=%v steps=%d, want the 2 r firings", res.Terminated, res.Steps)
	}
	for _, f := range blockers[:2] {
		baseIns.Remove(f)
	}
	dres, err = st.Delete(rules, ins, blockers[:2], baseIns)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Result.Terminated || dres.Result.Steps != 3 {
		t.Errorf("repair = %+v, want 3 firings in all and Terminated false", dres.Result)
	}
	if !st.Truncated() {
		t.Error("a repair that ran out of budget must leave the state truncated")
	}
}

// TestDeleteFactWithNULInName: over-deletion finds the consequences of a
// removed fact also when its name holds a NUL byte. Deleting p("a\x00b") under p(X) -> s(X) must over-delete
// s("a\x00b") and leave s(a) and s(b).
func TestDeleteFactWithNULInName(t *testing.T) {
	rules := parser.MustParseRules(`p(X) -> s(X) .`)
	for _, par := range parLegs {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			victim := at("p", c("a\x00b"))
			base := []logic.Atom{victim, at("p", c("a")), at("p", c("b"))}
			baseIns := storage.MustFromAtoms(base)
			st := NewState(Options{Parallelism: par})
			ins := baseIns.Clone()
			if res := st.Resume(rules, ins, ins); !res.Terminated || res.Steps != 3 {
				t.Fatalf("initial chase: terminated=%v steps=%d, want 3 firings", res.Terminated, res.Steps)
			}
			baseIns.Remove(victim)
			dres, err := st.Delete(rules, ins, []logic.Atom{victim}, baseIns)
			if err != nil {
				t.Fatal(err)
			}
			if !dres.Result.Terminated || dres.OverDeleted != 1 {
				t.Errorf("repair = %+v, want 1 fact over-deleted", dres)
			}
			if ins.ContainsAtom(at("s", c("a\x00b"))) {
				t.Errorf("s(\"a\\x00b\") survived the deletion of its only support:\n%s", ins)
			}
			if !ins.ContainsAtom(at("s", c("a"))) || !ins.ContainsAtom(at("s", c("b"))) || ins.Relation("s").Len() != 2 {
				t.Errorf("s after the deletion = %s, want s(a) and s(b)", ins)
			}
		})
	}
}

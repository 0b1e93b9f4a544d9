package chase

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/storage"
)

// TestRuleMutationIncrementalEqualsScratch is the ontology-evolution
// correctness property at the engine level: starting from a chased prefix of
// a generated rule set, a random interleaving of ExtendRulesCtx (new rules
// over the whole instance as delta), DeleteRuleCtx (rule-keyed over-deletion +
// re-derivation), Extend (fact inserts) and Delete (fact removals) must
// leave the same null-free fact set as a from-scratch chase of the FINAL
// rule set over the surviving base facts. A shrinking set exercises the
// null table's rule-keyed entries.
func TestRuleMutationIncrementalEqualsScratch(t *testing.T) {
	families := []datagen.Family{
		datagen.FamilyLinear, datagen.FamilyMultilinear,
		datagen.FamilySticky, datagen.FamilyChain,
	}
	for _, fam := range families {
		for seed := int64(1); seed <= 4; seed++ {
			for _, par := range parLegs {
				name := fmt.Sprintf("%v/seed=%d/restricted/par=%d", fam, seed, par)
				t.Run(name, func(t *testing.T) {
					full := datagen.Rules(datagen.Config{Family: fam, Rules: 8, Seed: seed})
					data := datagen.Instance(full, 20, 8, seed)
					opts := Options{MaxRounds: 60, MaxSteps: 40000, Parallelism: par}

					// Start with a prefix of the rules; the rest is the
					// AddRule reserve.
					cur := dependency.MustNewSet(full.Rules[:5]...)
					reserve := full.Rules[5:]

					baseAtoms := data.Atoms()
					rng := rand.New(rand.NewSource(seed * 60013))
					rng.Shuffle(len(baseAtoms), func(i, j int) { baseAtoms[i], baseAtoms[j] = baseAtoms[j], baseAtoms[i] })
					cut := 3 * len(baseAtoms) / 4
					baseIns := storage.MustFromAtoms(baseAtoms[:cut])
					factReserve := baseAtoms[cut:]

					st := NewState(opts)
					ins := baseIns.Clone()
					if res := st.Resume(cur, ins, ins); !res.Terminated {
						t.Skip("initial chase truncated; nothing exact to compare")
					}

					for step := 0; step < 20; step++ {
						switch op := rng.Intn(4); {
						case op == 0 && len(reserve) > 0: // add a rule
							next, err := cur.WithRule(reserve[0])
							if err != nil {
								t.Fatal(err)
							}
							reserve = reserve[1:]
							res := st.ExtendRulesCtx(t.Context(), next, ins, cur.Len())
							if !res.Terminated {
								t.Skip("rule-extension increment truncated")
							}
							cur = next
						case op == 1 && cur.Len() > 1: // drop a rule
							ri := rng.Intn(cur.Len())
							next, err := cur.WithoutRule(ri)
							if err != nil {
								t.Fatal(err)
							}
							dres, err := st.DeleteRuleCtx(t.Context(), next, ins, ri, baseIns)
							if err != nil {
								t.Fatal(err)
							}
							if !dres.Result.Terminated {
								t.Skip("rule-removal repair truncated")
							}
							cur = next
						case op == 2 && len(factReserve) > 0: // insert facts
							n := 1 + rng.Intn(3)
							if n > len(factReserve) {
								n = len(factReserve)
							}
							for _, f := range factReserve[:n] {
								if err := baseIns.InsertAtom(f); err != nil {
									t.Fatal(err)
								}
							}
							res, err := st.Extend(cur, ins, factReserve[:n])
							if err != nil {
								t.Fatal(err)
							}
							if !res.Terminated {
								t.Skip("fact-extension increment truncated")
							}
							factReserve = factReserve[n:]
						default: // delete facts
							live := baseIns.Atoms()
							if len(live) == 0 {
								continue
							}
							victim := live[rng.Intn(len(live))]
							baseIns.Remove(victim)
							dres, err := st.Delete(cur, ins, []logic.Atom{victim}, baseIns)
							if err != nil {
								t.Fatal(err)
							}
							if !dres.Result.Terminated {
								t.Skip("deletion repair truncated")
							}
						}
					}

					scratch := Run(cur, baseIns, opts)
					if !scratch.Terminated {
						t.Skip("scratch chase of the final state truncated")
					}
					if sf, inf := constFacts(scratch.Instance), constFacts(ins); sf != inf {
						t.Errorf("null-free facts differ after rule mutations:\nscratch:\n%s\nincremental:\n%s", sf, inf)
					}
				})
			}
		}
	}
}

// TestExtendRulesDeltaProportional: adding one rule to a chased university
// instance must fire only that rule's triggers (plus propagation), far below
// the initial materialization — the AddRule delta-proportionality claim.
func TestExtendRulesDeltaProportional(t *testing.T) {
	rules := datagen.University()
	data := datagen.UniversityData(16, 1)
	st := NewState(Options{})
	ins := data.Clone()
	first := st.Resume(rules, ins, ins)
	if !first.Terminated {
		t.Fatal("initial chase must terminate")
	}
	if first.Steps < 100 {
		t.Fatalf("initial steps = %d; workload too small for the proportionality claim", first.Steps)
	}

	// department(X) -> organization(X): one firing per department (16), plus
	// nothing to propagate — a sliver of the initial build.
	add, err := parser.ParseRule(`department(X) -> organization(X) .`)
	if err != nil {
		t.Fatal(err)
	}
	next, err := rules.WithRule(add)
	if err != nil {
		t.Fatal(err)
	}
	res := st.ExtendRulesCtx(t.Context(), next, ins, rules.Len())
	if !res.Terminated {
		t.Fatal("rule extension must terminate")
	}
	if res.Steps != 16 {
		t.Errorf("extension steps = %d, want exactly one per department (16); initial build: %d", res.Steps, first.Steps)
	}
	if n := ins.Relation("organization").Len(); n != 16 {
		t.Errorf("organization facts = %d, want 16", n)
	}
	// A no-op extension (firstNew past the end) runs no rounds.
	if res := st.ExtendRulesCtx(t.Context(), next, ins, next.Len()); !res.Terminated || res.Steps != 0 || res.Rounds != 0 {
		t.Errorf("empty extension = %+v, want an immediate terminated no-op", res)
	}
}

// TestDeleteRuleRemovesContribution: removing a rule must take exactly its
// (non-rederivable) contribution out of the instance, keep facts derivable
// through surviving rules, and remap stored rule indices so later deletions
// against the shrunk set stay correct.
func TestDeleteRuleRemovesContribution(t *testing.T) {
	t.Run("restricted", func(t *testing.T) {
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
		st := NewState(Options{})
		ins := d.Clone()
		if res := st.Resume(rules, ins, ins); !res.Terminated {
			t.Fatal("chase must terminate")
		}

		// Remove R1 (student ⊑ person): person(dana) survives via the
		// employee rule, person(solo) and entity(solo) go.
		next, err := rules.WithoutRule(0)
		if err != nil {
			t.Fatal(err)
		}
		dres, err := st.DeleteRuleCtx(t.Context(), next, ins, 0, d)
		if err != nil {
			t.Fatal(err)
		}
		if dres.Requested == 0 || dres.Rederived == 0 {
			t.Errorf("counters = %+v, want an over-delete/re-derive cycle", dres)
		}
		for _, a := range []logic.Atom{at("person", c("dana")), at("entity", c("dana"))} {
			if !ins.ContainsAtom(a) {
				t.Errorf("%v must survive via the employee derivation", a)
			}
		}
		for _, a := range []logic.Atom{at("person", c("solo")), at("entity", c("solo"))} {
			if ins.ContainsAtom(a) {
				t.Errorf("%v must be gone with the removed rule", a)
			}
		}
		if !ins.ContainsAtom(at("student", c("solo"))) {
			t.Error("base facts must never be touched by rule removal")
		}

		// The indices were remapped: deleting employee(dana) against the
		// shrunk set must now take person(dana) and entity(dana) with it.
		d.Remove(at("employee", c("dana")))
		dres, err = st.Delete(next, ins, []logic.Atom{at("employee", c("dana"))}, d)
		if err != nil {
			t.Fatal(err)
		}
		if !dres.Result.Terminated {
			t.Fatal("repair must terminate")
		}
		for _, a := range []logic.Atom{at("person", c("dana")), at("entity", c("dana"))} {
			if ins.ContainsAtom(a) {
				t.Errorf("%v must be gone after its last support was deleted (index remap broken?)", a)
			}
		}
	})
}

// TestDeleteRuleRequiresProvenance mirrors the Delete guard: rule removal on
// a truncated state, or with a set that is not the state's set without the
// named rule, must refuse instead of corrupting. The name dates from the
// derivation graph every repair once needed; any untruncated state repairs.
func TestDeleteRuleRequiresProvenance(t *testing.T) {
	rules := parser.MustParseRules(`student(X) -> person(X) . person(X) -> agent(X) .`)
	next, err := rules.WithoutRule(0)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(Options{MaxSteps: 1})
	ins := data(at("student", c("a")), at("student", c("b"))).Clone()
	if res := st.Resume(rules, ins, ins); res.Terminated {
		t.Fatal("tiny budget must truncate")
	}
	if _, err := st.DeleteRuleCtx(t.Context(), next, ins, 0, nil); err == nil {
		t.Error("DeleteRule on a truncated state must error")
	}

	st = NewState(Options{})
	ins = data(at("student", c("a"))).Clone()
	if res := st.Resume(rules, ins, ins); !res.Terminated {
		t.Fatal("chase must terminate")
	}
	if _, err := st.DeleteRuleCtx(t.Context(), next, ins, 1, nil); err == nil {
		t.Error("DeleteRule with an index that does not name the dropped rule must error")
	}
	if _, err := st.DeleteRuleCtx(t.Context(), rules, ins, 0, nil); err == nil {
		t.Error("DeleteRule with the unshrunk set must error")
	}
}

// TestReplanOnEmptyToNonEmptyRelation: a rule reading a relation that is
// empty when Resume compiles its plans — populated only by another rule in a
// later round — must be re-costed at the round barrier instead of keeping an
// order chosen against an empty relation. The fixpoint is unchanged either
// way (the replan is a cost matter); the counter proves the transition was
// consumed.
func TestReplanOnEmptyToNonEmptyRelation(t *testing.T) {
	rules := parser.MustParseRules(`
a(X, Y) -> b(X, Y) .
b(X, Y), c(Y) -> d(X) .
`)
	ins := storage.NewInstance()
	for i := 0; i < 20; i++ {
		if err := ins.InsertAtom(at("a", c(fmt.Sprintf("x%d", i)), c(fmt.Sprintf("y%d", i%5)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := ins.InsertAtom(at("c", c(fmt.Sprintf("y%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	st := NewState(Options{})
	work := ins.Clone()
	res := st.Resume(rules, work, work)
	if !res.Terminated {
		t.Fatal("chase must terminate")
	}
	// b was empty at compile time and non-empty at the first barrier: the
	// second rule (reading b) must have been re-costed at least once.
	if st.TotalReplans() == 0 {
		t.Error("no replan recorded for the empty→non-empty transition of b")
	}
	if n := work.Relation("d").Len(); n != 20 {
		t.Errorf("d facts = %d, want 20", n)
	}
}

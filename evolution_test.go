package repro

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dependency"
	"repro/internal/logic"
)

// ruleSrc renders a TGD as plain program text (no label comment) for AddRule.
func ruleSrc(r *dependency.TGD) string {
	return logic.AtomsString(r.Body) + " -> " + logic.AtomsString(r.Head) + " ."
}

// TestPropertyOntologyEvolutionEqualsScratch is the live-evolution
// correctness property at the public API: over seeded random ontologies, a
// random interleaving of AddRule, RemoveRule, AddFact and DeleteFact — with
// chase-mode Answer calls in between, so the published materialization is
// repeatedly extended and DRed-repaired rather than rebuilt — must end with
// exactly the answers of an ontology parsed from scratch on the FINAL rule
// set and surviving facts, race-clean under -race.
func TestPropertyOntologyEvolutionEqualsScratch(t *testing.T) {
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain, datagen.FamilySticky}
	for _, fam := range families {
		for seed := int64(1); seed <= 5; seed++ {
			for _, par := range parLegs {
				t.Run(fmt.Sprintf("%v/seed=%d/par=%d", fam, seed, par), func(t *testing.T) {
					full := datagen.Rules(datagen.Config{Family: fam, Rules: 8, Seed: seed})
					data := datagen.Instance(full, 20, 8, seed)
					atoms := data.Atoms()

					rng := rand.New(rand.NewSource(seed * 50331653))
					rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })

					// Start with a rule prefix and a fact prefix; the rest are
					// the mutation reserves. Track the live base in a mirror.
					initRules := dependency.MustNewSet(full.Rules[:5]...)
					ruleReserve := full.Rules[5:]
					cut := 2 * len(atoms) / 3
					live := make(map[string]logic.Atom)
					for _, a := range atoms[:cut] {
						live[a.Key()] = a
					}
					factReserve := atoms[cut:]

					ont, err := Parse(initRules.String() + "\n" + factSrc(atoms[:cut]))
					if err != nil {
						t.Fatal(err)
					}
					opts := Options{Mode: ModeChase, Parallelism: par}
					// Queries over the FULL signature, so predicates touched
					// only by reserve rules are compared too.
					queries := atomicQueriesOf(t, full)
					if _, err := ont.AnswerCtx(bg, queries[0], opts); err != nil {
						t.Skipf("initial chase over budget: %v", err)
					}

					for step := 0; step < 24; step++ {
						switch op := rng.Intn(6); {
						case op == 0 && len(ruleReserve) > 0: // add a rule
							if err := ont.AddRuleCtx(bg, ruleSrc(ruleReserve[0])); err != nil {
								t.Fatal(err)
							}
							ruleReserve = ruleReserve[1:]
						case op == 1 && ont.Rules().Len() > 1: // remove a rule
							rules := ont.Rules()
							label := rules.Rules[rng.Intn(rules.Len())].Label
							if err := ont.RemoveRuleCtx(bg, label); err != nil {
								t.Fatal(err)
							}
						case op <= 3 && len(factReserve) > 0: // insert facts
							n := 1 + rng.Intn(3)
							if n > len(factReserve) {
								n = len(factReserve)
							}
							if err := ont.AddFact(factSrc(factReserve[:n])); err != nil {
								t.Fatal(err)
							}
							for _, a := range factReserve[:n] {
								live[a.Key()] = a
							}
							factReserve = factReserve[n:]
						case len(live) > 0: // delete facts
							var victims []logic.Atom
							want := 1 + rng.Intn(3)
							for _, a := range live {
								victims = append(victims, a)
								if len(victims) == want {
									break
								}
							}
							if n, err := ont.DeleteFact(factSrc(victims)); err != nil || n != len(victims) {
								t.Fatalf("DeleteFact removed %d of %d live facts, err=%v", n, len(victims), err)
							}
							for _, a := range victims {
								delete(live, a.Key())
							}
						}
						if rng.Intn(2) == 0 {
							if _, err := ont.AnswerCtx(bg, queries[rng.Intn(len(queries))], opts); err != nil {
								// Random rule additions can evolve the set into
								// a non-terminating one; a budget error is the
								// correct answer there, not a divergence.
								t.Skipf("evolved chase over budget: %v", err)
							}
						}
					}

					var final []logic.Atom
					for _, a := range live {
						final = append(final, a)
					}
					ontScratch, err := Parse(ont.Rules().String() + "\n" + factSrc(final))
					if err != nil {
						t.Fatal(err)
					}
					for _, q := range queries {
						inc, errInc := ont.AnswerCtx(bg, q, opts)
						scr, errScr := ontScratch.AnswerCtx(bg, q, opts)
						if (errInc == nil) != (errScr == nil) {
							t.Fatalf("%s: error divergence: inc=%v scratch=%v", q, errInc, errScr)
						}
						if errInc != nil {
							continue
						}
						if !inc.Equal(scr) {
							t.Errorf("%s: answers differ:\nincremental:\n%s\nscratch:\n%s", q, inc, scr)
						}
					}
				})
			}
		}
	}
}

// atomicQueriesOf returns one atomic query per predicate of an explicit set.
func atomicQueriesOf(t *testing.T, set *dependency.Set) []string {
	t.Helper()
	preds, err := set.Predicates()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for p, arity := range preds {
		vars := make([]string, arity)
		for i := range vars {
			vars[i] = fmt.Sprintf("X%d", i+1)
		}
		out = append(out, fmt.Sprintf("q(%s) :- %s(%s) .", joinVars(vars), p, joinVars(vars)))
	}
	return out
}

func joinVars(vs []string) string {
	out := ""
	for i, v := range vs {
		if i > 0 {
			out += ","
		}
		out += v
	}
	return out
}

// TestAddRuleIncrementalStepsProportionalToDelta asserts, through the public
// counters, that AddRule extends the published materialization with work
// proportional to what the new rule derives, not to the instance — and that
// RemoveRule takes exactly that contribution back out.
func TestAddRuleIncrementalStepsProportionalToDelta(t *testing.T) {
	ont := MustParse(datagen.University().String() + "\n" + datagen.UniversityData(16, 1).String())
	if _, err := ont.AnswerCtx(bg, `q(X) :- person(X) .`, Options{Mode: ModeChase}); err != nil {
		t.Fatal(err)
	}
	s0 := ont.MaterializationStats()
	if s0.LastSteps < 100 {
		t.Fatalf("initial build fired %d steps; workload too small for the proportionality claim", s0.LastSteps)
	}

	// One firing per department (16), nothing to propagate.
	if err := ont.AddRuleCtx(bg, `department(X) -> organization(X) .`); err != nil {
		t.Fatal(err)
	}
	s1 := ont.MaterializationStats()
	if !s1.Cached || s1.Epoch != s0.Epoch+1 {
		t.Fatalf("stats after AddRule = %+v, want epoch bump on the extended cache", s1)
	}
	if s1.LastSteps != 16 {
		t.Errorf("AddRule LastSteps = %d, want 16 (one per department; initial build: %d)", s1.LastSteps, s0.LastSteps)
	}
	if s1.Steps != s0.Steps+s1.LastSteps {
		t.Errorf("cumulative Steps = %d, want initial %d + increment %d", s1.Steps, s0.Steps, s1.LastSteps)
	}
	ans, err := ont.AnswerCtx(bg, `q(X) :- organization(X) .`, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 16 {
		t.Errorf("organizations = %d, want 16", ans.Len())
	}
	label := ont.Rules().Rules[ont.Rules().Len()-1].Label

	// RemoveRule repairs the cache in place; the answers must drop the
	// rule's contribution.
	if err := ont.RemoveRuleCtx(bg, label); err != nil {
		t.Fatal(err)
	}
	ans, err = ont.AnswerCtx(bg, `q(X) :- organization(X) .`, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 0 {
		t.Errorf("organizations after RemoveRule = %d, want 0", ans.Len())
	}

	// Second cycle: the removal is again an incremental repair (epoch bump,
	// delta-sized step count).
	if err := ont.AddRuleCtx(bg, `department(X) -> organization(X) .`); err != nil {
		t.Fatal(err)
	}
	s2 := ont.MaterializationStats()
	if !s2.Cached {
		t.Fatal("cache must be maintained across the second AddRule")
	}
	label = ont.Rules().Rules[ont.Rules().Len()-1].Label
	if err := ont.RemoveRuleCtx(bg, label); err != nil {
		t.Fatal(err)
	}
	s3 := ont.MaterializationStats()
	if !s3.Cached || s3.Epoch != s2.Epoch+1 {
		t.Fatalf("stats after incremental RemoveRule = %+v, want a repaired (not dropped) cache", s3)
	}
	if s3.LastSteps > 20 {
		t.Errorf("RemoveRule repair LastSteps = %d, want delta-proportional (initial build: %d)", s3.LastSteps, s0.LastSteps)
	}
	ans, err = ont.AnswerCtx(bg, `q(X) :- organization(X) .`, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 0 {
		t.Errorf("organizations after second RemoveRule = %d, want 0", ans.Len())
	}
}

// TestClassifyInvalidatedByRuleMutation is the stale-classification
// regression: Classify used to be cached behind a sync.Once and would serve
// the pre-mutation landscape forever. After AddRule/RemoveRule the report
// must reflect the current rule set — here FO-rewritability flips off when
// the paper's Example 2 pair (not WR, rewriting diverges) is added live,
// and back on when it is removed.
func TestClassifyInvalidatedByRuleMutation(t *testing.T) {
	ont := MustParse(`
student(X) -> person(X) .
student(alice) .
`)
	if !ont.Classify().FORewritable {
		t.Fatal("the linear hierarchy must start FO-rewritable")
	}
	if err := ont.AddRuleCtx(bg, `t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .`); err != nil {
		t.Fatal(err)
	}
	if err := ont.AddRuleCtx(bg, `s(Y1,Y1,Y2) -> r(Y2,Y3) .`); err != nil {
		t.Fatal(err)
	}
	if ont.Rules().Len() != 3 {
		t.Fatalf("rules = %d, want 3", ont.Rules().Len())
	}
	rep := ont.Classify()
	if rep.FORewritable {
		t.Errorf("stale classification served after AddRule:\n%s", rep)
	}
	// Removing the dangerous pair restores the original landscape.
	labels := []string{
		ont.Rules().Rules[1].Label,
		ont.Rules().Rules[2].Label,
	}
	for _, l := range labels {
		if err := ont.RemoveRuleCtx(bg, l); err != nil {
			t.Fatal(err)
		}
	}
	if !ont.Classify().FORewritable {
		t.Error("stale classification served after RemoveRule")
	}
	// And ModeAuto follows the fresh report: with the pair gone the query
	// must answer (rewriting), with it present it must still answer (chase
	// fallback through the same Classify).
	if _, err := ont.AnswerCtx(bg, `q(X) :- person(X) .`, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestRuleMutationValidation: malformed or inconsistent rule mutations must
// be rejected as strict no-ops — and unknown labels too.
func TestRuleMutationValidation(t *testing.T) {
	ont := MustParse(`
student(X) -> person(X) .
student(alice) .
`)
	if _, err := ont.AnswerCtx(bg, `q(X) :- person(X) .`, Options{Mode: ModeChase}); err != nil {
		t.Fatal(err)
	}
	s0 := ont.MaterializationStats()
	for _, bad := range []string{
		`student(X, Y) -> tall(X) .`,                  // arity conflict with the rule set / data
		`person(X) -> q(X) . f(a) .`,                  // not a single rule
		`person(bob) .`,                               // a fact
		`person(X), tall(X) -> q(X) . q(Y) -> r(Y) .`, // two rules
	} {
		if err := ont.AddRuleCtx(bg, bad); err == nil {
			t.Errorf("AddRule(%q) must error", bad)
		}
	}
	if err := ont.RemoveRuleCtx(bg, "R99"); err == nil {
		t.Error("RemoveRule of an unknown label must error")
	}
	if ont.Rules().Len() != 1 {
		t.Errorf("rules = %d after rejected mutations, want 1", ont.Rules().Len())
	}
	s1 := ont.MaterializationStats()
	if !s1.Cached || s1.Epoch != s0.Epoch {
		t.Errorf("rejected mutations must keep the cache: %+v -> %+v", s0, s1)
	}
}

// TestConcurrentEvolutionAndAnswer hammers every mutation kind against
// concurrent readers: one writer streams fact mutations, another streams
// rule mutations, while readers answer in chase mode over published
// snapshots. Under -race this is the pipeline coordination test; afterwards
// the answers must equal a from-scratch parse of the final state.
func TestConcurrentEvolutionAndAnswer(t *testing.T) {
	base := datagen.University().String() + "\n" + datagen.UniversityData(2, 1).String()
	ont := MustParse(base)
	const q = `q(X) :- person(X) .`
	if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase}); err != nil {
		t.Fatal(err)
	}

	const ops = 10
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < ops; i++ {
			if err := ont.AddFact(fmt.Sprintf("graduateStudent(g%d) .", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	ruleDone := make(chan struct{})
	go func() {
		defer close(ruleDone)
		for i := 0; i < ops; i++ {
			if err := ont.AddRuleCtx(bg, fmt.Sprintf("department(X) -> org%d(X) .", i)); err != nil {
				t.Error(err)
				return
			}
			if err := ont.RemoveRuleCtx(bg, ont.Rules().Rules[ont.Rules().Len()-1].Label); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < ops; i++ {
		if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	<-ruleDone

	scratch := MustParse(base)
	for i := 0; i < ops; i++ {
		if err := scratch.AddFact(fmt.Sprintf("graduateStudent(g%d) .", i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	want, err := scratch.AnswerCtx(bg, q, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("concurrent evolution diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if ont.Rules().Len() != scratch.Rules().Len() {
		t.Errorf("rules = %d, want %d (every added rule was removed)", ont.Rules().Len(), scratch.Rules().Len())
	}
}

// TestFullRebuildsSurfacedInStats is the observability regression for the
// rebuild path. The first RemoveRuleCtx on a materialized ontology repairs
// in place: the cache stays, its epoch advances, and FullRebuilds stays 0.
// A cache the chase truncated cannot be repaired, so a mutation drops it and
// the next chase answer rebuilds from scratch: FullRebuilds must tick
// exactly on that drop.
func TestFullRebuildsSurfacedInStats(t *testing.T) {
	src := datagen.University().String() + "\n" + datagen.UniversityData(4, 1).String()
	ont := MustParse(src)
	if err := ont.AddRuleCtx(bg, `department(X) -> organization(X) .`); err != nil {
		t.Fatal(err)
	}
	label := ont.Rules().Rules[ont.Rules().Len()-1].Label
	if _, err := ont.AnswerCtx(bg, `q(X) :- person(X) .`, Options{Mode: ModeChase}); err != nil {
		t.Fatal(err)
	}
	s0 := ont.MaterializationStats()
	if !s0.Cached || s0.FullRebuilds != 0 {
		t.Fatalf("fresh build stats = %+v, want cached with FullRebuilds 0", s0)
	}
	if err := ont.RemoveRuleCtx(bg, label); err != nil {
		t.Fatal(err)
	}
	if s1 := ont.MaterializationStats(); !s1.Cached || s1.FullRebuilds != 0 || s1.Epoch != s0.Epoch+1 {
		t.Fatalf("stats after the first RemoveRule = %+v, want the cache repaired in place: epoch bump, no rebuild", s1)
	}

	// A budget too small for the chase publishes a truncated cache, which
	// no mutation can repair: the deletion drops it, and the counter says so.
	ont = MustParse(src)
	if _, err := ont.AnswerCtx(bg, `q(X) :- person(X) .`, Options{Mode: ModeChase, MaxSteps: 10}); err == nil {
		t.Fatal("a 10-step budget must truncate the chase")
	}
	if s := ont.MaterializationStats(); !s.Cached || s.Terminated {
		t.Fatalf("stats after the truncated build = %+v, want a cached, truncated materialization", s)
	}
	victim := ont.Data().Atoms()[0]
	if n, err := ont.DeleteFactCtx(bg, victim.String()+" ."); err != nil || n != 1 {
		t.Fatalf("DeleteFactCtx(%v): n=%d err=%v", victim, n, err)
	}
	if s := ont.MaterializationStats(); s.Cached || s.FullRebuilds != 1 {
		t.Fatalf("stats after deleting from a truncated cache = %+v, want it dropped with FullRebuilds 1", s)
	}
	if _, err := ont.AnswerCtx(bg, `q(X) :- person(X) .`, Options{Mode: ModeChase}); err != nil {
		t.Fatal(err)
	}
	if s := ont.MaterializationStats(); !s.Cached || !s.Terminated || s.FullRebuilds != 1 {
		t.Fatalf("stats after the rebuild = %+v, want a terminated cache and FullRebuilds still 1", s)
	}
}

// TestEvolutionMatchesOracle runs the live-mutation pipeline over a
// materialization: a seeded interleaving of AddRule, RemoveRule, AddFact and
// DeleteFact — with chase-mode answers in between, so the build is
// repeatedly extended and DRed-repaired in place — must end with exactly the
// answers of the textbook chase of the final rule set over the surviving
// facts.
func TestEvolutionMatchesOracle(t *testing.T) {
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain, datagen.FamilySticky}
	for _, fam := range families {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", fam, seed), func(t *testing.T) {
				full := datagen.Rules(datagen.Config{Family: fam, Rules: 8, Seed: seed})
				data := datagen.Instance(full, 20, 8, seed)
				atoms := data.Atoms()

				rng := rand.New(rand.NewSource(seed * 97073159))
				rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })

				initRules := dependency.MustNewSet(full.Rules[:5]...)
				ruleReserve := full.Rules[5:]
				cut := 2 * len(atoms) / 3
				live := make(map[string]logic.Atom)
				for _, a := range atoms[:cut] {
					live[a.Key()] = a
				}
				factReserve := atoms[cut:]

				ont, err := Parse(initRules.String() + "\n" + factSrc(atoms[:cut]))
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{Mode: ModeChase}
				queries := atomicQueriesOf(t, full)
				if _, err := ont.AnswerCtx(bg, queries[0], opts); err != nil {
					t.Skipf("initial chase over budget: %v", err)
				}

				for step := 0; step < 20; step++ {
					switch op := rng.Intn(6); {
					case op == 0 && len(ruleReserve) > 0:
						if err := ont.AddRuleCtx(bg, ruleSrc(ruleReserve[0])); err != nil {
							t.Fatal(err)
						}
						ruleReserve = ruleReserve[1:]
					case op == 1 && ont.Rules().Len() > 1:
						rules := ont.Rules()
						label := rules.Rules[rng.Intn(rules.Len())].Label
						if err := ont.RemoveRuleCtx(bg, label); err != nil {
							t.Fatal(err)
						}
					case op <= 3 && len(factReserve) > 0:
						n := 1 + rng.Intn(3)
						if n > len(factReserve) {
							n = len(factReserve)
						}
						if err := ont.AddFact(factSrc(factReserve[:n])); err != nil {
							t.Fatal(err)
						}
						for _, a := range factReserve[:n] {
							live[a.Key()] = a
						}
						factReserve = factReserve[n:]
					case len(live) > 0:
						var victims []logic.Atom
						want := 1 + rng.Intn(3)
						for _, a := range live {
							victims = append(victims, a)
							if len(victims) == want {
								break
							}
						}
						if n, err := ont.DeleteFact(factSrc(victims)); err != nil || n != len(victims) {
							t.Fatalf("DeleteFact removed %d of %d live facts, err=%v", n, len(victims), err)
						}
						for _, a := range victims {
							delete(live, a.Key())
						}
					}
					if rng.Intn(2) == 0 {
						if _, err := ont.AnswerCtx(bg, queries[rng.Intn(len(queries))], opts); err != nil {
							t.Skipf("evolved chase over budget: %v", err)
						}
					}
				}

				var final []logic.Atom
				for _, a := range live {
					final = append(final, a)
				}
				inc := make(map[string]*Answers)
				for _, q := range queries {
					ans, err := ont.AnswerCtx(bg, q, opts)
					if err != nil {
						t.Skipf("evolved chase over budget: %v", err)
					}
					inc[q] = ans
				}
				ref, ok := oracleOf(ont.Rules(), final, 20*ont.MaterializationStats().Steps+1000)
				if !ok {
					t.Skip("oracle chase of the final state over budget")
				}
				for _, q := range queries {
					if got, want := renderedAnswers(inc[q]), ref.answers(t, q); !slices.Equal(got, want) {
						t.Errorf("%s: answers differ from the oracle:\nincremental: %v\noracle:      %v", q, got, want)
					}
				}
			})
		}
	}
}

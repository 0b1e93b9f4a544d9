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
// set and surviving facts. Sequential and parallel, race-clean under -race.
func TestPropertyOntologyEvolutionEqualsScratch(t *testing.T) {
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain, datagen.FamilySticky}
	for _, fam := range families {
		for seed := int64(1); seed <= 5; seed++ {
			for _, par := range []int{1, 4} {
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
					if _, err := ont.AnswerOptions(queries[0], opts); err != nil {
						t.Skipf("initial chase over budget: %v", err)
					}

					for step := 0; step < 24; step++ {
						switch op := rng.Intn(6); {
						case op == 0 && len(ruleReserve) > 0: // add a rule
							if err := ont.AddRule(ruleSrc(ruleReserve[0])); err != nil {
								t.Fatal(err)
							}
							ruleReserve = ruleReserve[1:]
						case op == 1 && ont.Rules().Len() > 1: // remove a rule
							rules := ont.Rules()
							label := rules.Rules[rng.Intn(rules.Len())].Label
							if err := ont.RemoveRule(label); err != nil {
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
							if _, err := ont.AnswerOptions(queries[rng.Intn(len(queries))], opts); err != nil {
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
						inc, errInc := ont.AnswerOptions(q, opts)
						scr, errScr := ontScratch.AnswerOptions(q, opts)
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
	if _, err := ont.AnswerMode(`q(X) :- person(X) .`, ModeChase); err != nil {
		t.Fatal(err)
	}
	s0 := ont.MaterializationStats()
	if s0.LastSteps < 100 {
		t.Fatalf("initial build fired %d steps; workload too small for the proportionality claim", s0.LastSteps)
	}

	// One firing per department (16), nothing to propagate.
	if err := ont.AddRule(`department(X) -> organization(X) .`); err != nil {
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
	ans, err := ont.AnswerMode(`q(X) :- organization(X) .`, ModeChase)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 16 {
		t.Errorf("organizations = %d, want 16", ans.Len())
	}
	label := ont.Rules().Rules[ont.Rules().Len()-1].Label

	// RemoveRule pays one provenance rebuild the first time (recording was
	// off), then repairs are incremental; either way the answers must drop
	// the rule's contribution.
	if err := ont.RemoveRule(label); err != nil {
		t.Fatal(err)
	}
	ans, err = ont.AnswerMode(`q(X) :- organization(X) .`, ModeChase)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 0 {
		t.Errorf("organizations after RemoveRule = %d, want 0", ans.Len())
	}

	// Second cycle: the cache now records provenance, so the removal itself
	// must be an incremental repair (epoch bump, delta-sized step count).
	if err := ont.AddRule(`department(X) -> organization(X) .`); err != nil {
		t.Fatal(err)
	}
	s2 := ont.MaterializationStats()
	if !s2.Cached {
		t.Fatal("cache must be maintained across the second AddRule")
	}
	label = ont.Rules().Rules[ont.Rules().Len()-1].Label
	if err := ont.RemoveRule(label); err != nil {
		t.Fatal(err)
	}
	s3 := ont.MaterializationStats()
	if !s3.Cached || s3.Epoch != s2.Epoch+1 {
		t.Fatalf("stats after incremental RemoveRule = %+v, want a repaired (not dropped) cache", s3)
	}
	if s3.LastSteps > 20 {
		t.Errorf("RemoveRule repair LastSteps = %d, want delta-proportional (initial build: %d)", s3.LastSteps, s0.LastSteps)
	}
	ans, err = ont.AnswerMode(`q(X) :- organization(X) .`, ModeChase)
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
	if err := ont.AddRule(`t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .`); err != nil {
		t.Fatal(err)
	}
	if err := ont.AddRule(`s(Y1,Y1,Y2) -> r(Y2,Y3) .`); err != nil {
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
		if err := ont.RemoveRule(l); err != nil {
			t.Fatal(err)
		}
	}
	if !ont.Classify().FORewritable {
		t.Error("stale classification served after RemoveRule")
	}
	// And ModeAuto follows the fresh report: with the pair gone the query
	// must answer (rewriting), with it present it must still answer (chase
	// fallback through the same Classify).
	if _, err := ont.Answer(`q(X) :- person(X) .`); err != nil {
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
	if _, err := ont.AnswerMode(`q(X) :- person(X) .`, ModeChase); err != nil {
		t.Fatal(err)
	}
	s0 := ont.MaterializationStats()
	for _, bad := range []string{
		`student(X, Y) -> tall(X) .`,                  // arity conflict with the rule set / data
		`person(X) -> q(X) . f(a) .`,                  // not a single rule
		`person(bob) .`,                               // a fact
		`person(X), tall(X) -> q(X) . q(Y) -> r(Y) .`, // two rules
	} {
		if err := ont.AddRule(bad); err == nil {
			t.Errorf("AddRule(%q) must error", bad)
		}
	}
	if err := ont.RemoveRule("R99"); err == nil {
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

// TestCompactionKeepsMaintenanceCorrect is the generational-sweep property
// at the public API: with a sweep run after every mutation, a stream of
// add/delete/rule mutations must still answer exactly like scratch, the
// sweep counters must move, and — the acceptance criterion — DeleteFact
// after a sweep still repairs correctly. Its last leg shows the automatic
// sweep: the DefaultCompactEvery-th mutation runs one on its own.
func TestCompactionKeepsMaintenanceCorrect(t *testing.T) {
	base := datagen.University().String() + "\n" + datagen.UniversityData(2, 1).String()
	const q = `q(X) :- person(X) .`
	// primed returns an ontology recording provenance with its
	// materialization built, after two mutations: the first delete drops the
	// provenance-less cache, sticky-enabling the graph for every later build.
	primed := func() *Ontology {
		ont := MustParse(base)
		if _, err := ont.AnswerMode(q, ModeChase); err != nil {
			t.Fatal(err)
		}
		if err := ont.AddFact(`undergraduateStudent(primer) .`); err != nil {
			t.Fatal(err)
		}
		if n, err := ont.DeleteFact(`undergraduateStudent(primer) .`); err != nil || n != 1 {
			t.Fatalf("priming delete: n=%d err=%v", n, err)
		}
		if _, err := ont.AnswerMode(q, ModeChase); err != nil {
			t.Fatal(err)
		}
		return ont
	}
	ont := primed()

	// Maintenance stream: every mutation dirties the graph, and a sweep
	// follows each one.
	swept := 0
	mutated := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		swept += ont.CompactProvenance()
	}
	for i := 0; i < 8; i++ {
		mutated(ont.AddFact(fmt.Sprintf("undergraduateStudent(c%d) .", i)))
	}
	for i := 0; i < 4; i++ {
		n, err := ont.DeleteFact(fmt.Sprintf("undergraduateStudent(c%d) .", i))
		if err == nil && n != 1 {
			err = fmt.Errorf("delete c%d removed %d facts", i, n)
		}
		mutated(err)
	}
	mutated(ont.AddRule(`department(X) -> organization(X) .`))
	mutated(ont.RemoveRule(ont.Rules().Rules[ont.Rules().Len()-1].Label))
	if swept == 0 {
		t.Fatal("no sweep reclaimed a dead derivation")
	}
	// The stats are frozen at publication: an insert, which kills nothing,
	// publishes the swept graph.
	mutated(ont.AddFact(`undergraduateStudent(c8) .`))
	st := ont.MaterializationStats()
	if !st.Cached || st.Compactions == 0 {
		t.Fatalf("stats = %+v, want compaction sweeps to have run", st)
	}
	if st.ProvDeadDerivations != 0 {
		t.Errorf("ProvDeadDerivations = %d after a sweep-every-mutation stream, want 0", st.ProvDeadDerivations)
	}

	// The acceptance criterion: a DeleteFact against the compacted graph
	// still repairs to exactly the scratch answers.
	if n, err := ont.DeleteFact(`undergraduateStudent(c5) .`); err != nil || n != 1 {
		t.Fatalf("post-compaction delete: n=%d err=%v", n, err)
	}
	got, err := ont.AnswerMode(q, ModeChase)
	if err != nil {
		t.Fatal(err)
	}
	scratch := MustParse(base)
	for _, i := range []int{4, 6, 7, 8} { // c0..c3 and c5 were deleted
		if err := scratch.AddFact(fmt.Sprintf("undergraduateStudent(c%d) .", i)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := scratch.AnswerMode(q, ModeChase)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("post-compaction maintenance diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Between automatic sweeps dead derivations accumulate until one is
	// requested; an on-demand sweep with nothing dead is a no-op.
	if st := ont.MaterializationStats(); st.ProvDeadDerivations == 0 {
		t.Error("the dead derivations of the last delete must remain visible until a sweep")
	}
	if dropped := ont.CompactProvenance(); dropped == 0 {
		t.Error("on-demand CompactProvenance must reclaim the dead derivations")
	}
	if dropped := ont.CompactProvenance(); dropped != 0 {
		t.Errorf("idle sweep dropped %d, want 0", dropped)
	}

	// The automatic sweep: primed has made two mutations, and churn adds the
	// rest up to DefaultCompactEvery; only the last one sweeps.
	ont = primed()
	for i := 2; i < DefaultCompactEvery; i++ {
		if st := ont.MaterializationStats(); st.Compactions != 0 {
			t.Fatalf("a sweep ran after %d mutations, want none before %d", i, DefaultCompactEvery)
		}
		fact := fmt.Sprintf("undergraduateStudent(churn%d) .", i/2)
		var err error
		if i%2 == 0 {
			err = ont.AddFact(fact)
		} else {
			_, err = ont.DeleteFact(fact)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := ont.MaterializationStats(); st.Compactions != 1 || st.ProvDeadDerivations != 0 {
		t.Errorf("after %d mutations: stats = %+v, want one automatic sweep and nothing dead", DefaultCompactEvery, st)
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
	if _, err := ont.AnswerMode(q, ModeChase); err != nil {
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
			if err := ont.AddRule(fmt.Sprintf("department(X) -> org%d(X) .", i)); err != nil {
				t.Error(err)
				return
			}
			if err := ont.RemoveRule(ont.Rules().Rules[ont.Rules().Len()-1].Label); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < ops; i++ {
		if _, err := ont.AnswerOptions(q, Options{Mode: ModeChase, Parallelism: 2}); err != nil {
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
	got, err := ont.AnswerMode(q, ModeChase)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scratch.AnswerMode(q, ModeChase)
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
// silent-rebuild path: RemoveRule against a cache built without provenance
// cannot repair incrementally, so it drops the materialization and the next
// chase answer rebuilds from scratch. That used to be invisible — the stats
// looked identical to a healthy repair once the rebuild finished. The
// FullRebuilds counter must tick exactly on the drop, and must NOT tick when
// the second removal (provenance now recorded) repairs incrementally.
func TestFullRebuildsSurfacedInStats(t *testing.T) {
	ont := MustParse(datagen.University().String() + "\n" + datagen.UniversityData(4, 1).String())
	if err := ont.AddRule(`department(X) -> organization(X) .`); err != nil {
		t.Fatal(err)
	}
	label := ont.Rules().Rules[ont.Rules().Len()-1].Label
	if _, err := ont.AnswerMode(`q(X) :- person(X) .`, ModeChase); err != nil {
		t.Fatal(err)
	}
	if s := ont.MaterializationStats(); !s.Cached || s.FullRebuilds != 0 {
		t.Fatalf("fresh build stats = %+v, want cached with FullRebuilds 0", s)
	}

	// Provenance was off during the build: the removal silently drops the
	// cache instead of repairing it, and the counter must say so.
	if err := ont.RemoveRule(label); err != nil {
		t.Fatal(err)
	}
	s1 := ont.MaterializationStats()
	if s1.Cached {
		t.Fatalf("provenance-less RemoveRule kept the cache: %+v", s1)
	}
	if s1.FullRebuilds != 1 {
		t.Fatalf("FullRebuilds after provenance-less RemoveRule = %d, want 1", s1.FullRebuilds)
	}

	// Rebuild (now recording provenance), then a second add/remove cycle
	// repairs incrementally — no further drop, counter unchanged.
	if _, err := ont.AnswerMode(`q(X) :- person(X) .`, ModeChase); err != nil {
		t.Fatal(err)
	}
	if err := ont.AddRule(`department(X) -> organization(X) .`); err != nil {
		t.Fatal(err)
	}
	label = ont.Rules().Rules[ont.Rules().Len()-1].Label
	if err := ont.RemoveRule(label); err != nil {
		t.Fatal(err)
	}
	s2 := ont.MaterializationStats()
	if !s2.Cached {
		t.Fatalf("incremental RemoveRule dropped the cache: %+v", s2)
	}
	if s2.FullRebuilds != 1 {
		t.Fatalf("FullRebuilds after incremental RemoveRule = %d, want still 1", s2.FullRebuilds)
	}
}

// TestPartitionedEvolutionMatchesOracle runs the live-mutation pipeline over
// a 2-worker materialization: a seeded interleaving of AddRule, RemoveRule,
// AddFact and DeleteFact — with chase-mode answers in between, so the build
// is repeatedly extended and DRed-repaired in place — must end with exactly
// the answers of the textbook chase of the final rule set over the surviving
// facts. The name dates from the hash-partitioned store; this is its one-store
// leg.
func TestPartitionedEvolutionMatchesOracle(t *testing.T) {
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
				opts := Options{Mode: ModeChase, Parallelism: 2}
				queries := atomicQueriesOf(t, full)
				if _, err := ont.AnswerOptions(queries[0], opts); err != nil {
					t.Skipf("initial chase over budget: %v", err)
				}

				for step := 0; step < 20; step++ {
					switch op := rng.Intn(6); {
					case op == 0 && len(ruleReserve) > 0:
						if err := ont.AddRule(ruleSrc(ruleReserve[0])); err != nil {
							t.Fatal(err)
						}
						ruleReserve = ruleReserve[1:]
					case op == 1 && ont.Rules().Len() > 1:
						rules := ont.Rules()
						label := rules.Rules[rng.Intn(rules.Len())].Label
						if err := ont.RemoveRule(label); err != nil {
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
						if _, err := ont.AnswerOptions(queries[rng.Intn(len(queries))], opts); err != nil {
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
					ans, err := ont.AnswerOptions(q, opts)
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

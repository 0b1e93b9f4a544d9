package repro

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dependency"
	"repro/internal/eval"
	"repro/internal/logic"
)

// TestPropertyPartitionedMatchesOracle is the distribution-correctness
// property at the public API: over seeded random ontologies, a chase-mode
// ontology over P in {1, 2, 4} partitions must produce exactly the certain
// answers of the textbook chase — and, because the one driver replays the
// very same semi-naive rounds whatever the layout, P > 1 must report exactly
// the cumulative Steps/Rounds/NullsCreated of P = 1. Sequential and parallel,
// race-clean under -race.
func TestPropertyPartitionedMatchesOracle(t *testing.T) {
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain, datagen.FamilySticky}
	for _, fam := range families {
		for seed := int64(1); seed <= 3; seed++ {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v/seed=%d/par=%d", fam, seed, par), func(t *testing.T) {
					var baseStats MaterializationStats
					var ref *oracle
					for _, parts := range []int{1, 2, 4} {
						ont := ontologyFromDatagen(t, fam, 5, seed)
						queries := atomicQueriesOf(t, ont.Rules())
						opts := Options{Mode: ModeChase, Parallelism: par, Partitions: parts}
						if _, err := ont.AnswerOptions(queries[0], opts); err != nil {
							if parts > 1 {
								t.Fatalf("P=%d over budget where P=1 terminated: %v", parts, err)
							}
							t.Skipf("baseline chase over budget: %v", err)
						}
						st := ont.MaterializationStats()
						if st.Partitions != parts {
							t.Errorf("P=%d: stats report Partitions=%d", parts, st.Partitions)
						}
						if parts == 1 {
							baseStats = st
							var ok bool
							if ref, ok = oracleOf(ont.Rules(), ont.Data().Atoms(), 20*st.Steps+1000); !ok {
								t.Fatalf("oracle over budget on a chase the engine finished in %d steps", st.Steps)
							}
						}
						for _, q := range queries {
							ans, err := ont.AnswerOptions(q, opts)
							if err != nil {
								t.Fatalf("P=%d %s: %v", parts, q, err)
							}
							if got, want := renderedAnswers(ans), ref.answers(t, q); !slices.Equal(got, want) {
								t.Errorf("P=%d %s: answers differ from the oracle:\nengine: %v\noracle: %v", parts, q, got, want)
							}
						}
						if st.Steps != baseStats.Steps || st.Rounds != baseStats.Rounds ||
							st.NullsCreated != baseStats.NullsCreated {
							t.Errorf("P=%d: counters diverge from P=1: steps %d/%d rounds %d/%d nulls %d/%d",
								parts, st.Steps, baseStats.Steps, st.Rounds, baseStats.Rounds,
								st.NullsCreated, baseStats.NullsCreated)
						}
						if st.Partition.LocalFirings == 0 && st.Partition.ShippedTriggers == 0 && st.Steps > 0 {
							t.Errorf("P=%d: %d steps fired but no locality counters moved: %+v",
								parts, st.Steps, st.Partition)
						}
					}
				})
			}
		}
	}
}

// TestPartitionedEvolutionMatchesOracle runs the live-mutation pipeline over
// a P = 3 materialization: a seeded interleaving of AddRule, RemoveRule,
// AddFact and DeleteFact — with chase-mode answers in between, so the build
// is repeatedly extended and DRed-repaired in place — must end with exactly
// the answers of the textbook chase of the final rule set over the surviving
// facts.
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
				opts := Options{Mode: ModeChase, Parallelism: 2, Partitions: 3}
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

				if st := ont.MaterializationStats(); st.Cached && st.Partitions != 3 {
					t.Fatalf("mutated build lost its layout: Partitions=%d, want 3", st.Partitions)
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
						t.Errorf("%s: answers differ from the oracle:\nincremental P=3: %v\noracle:          %v", q, got, want)
					}
				}
			})
		}
	}
}

// TestPartitionedAnswerSurfacesAgree drives every answering surface —
// AnswerOptions, the push iterator AnswerEach and the pull iterator under it
// (openAnswer) — over the same P = 4 ontology and requires the oracle's
// answer set from each, plus a live pruned-probe counter once a query binds
// the partitioning column.
func TestPartitionedAnswerSurfacesAgree(t *testing.T) {
	ont := MustParse(datagen.University().String() + "\n" + datagen.UniversityData(6, 2).String())
	opts := Options{Mode: ModeChase, Parallelism: 2, Partitions: 4}
	ref, ok := oracleOf(ont.Rules(), ont.Data().Atoms(), 5000)
	if !ok {
		t.Fatal("oracle over budget on University")
	}
	for _, q := range []string{
		`q(X) :- person(X) .`,
		`q(X,Y) :- advisor(X,Y) .`,
		`q(X) :- professor(X) .`,
	} {
		want, err := ont.AnswerOptions(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, oracle := renderedAnswers(want), ref.answers(t, q); !slices.Equal(got, oracle) {
			t.Errorf("%s: AnswerOptions differs from the oracle:\nengine: %v\noracle: %v", q, got, oracle)
		}

		each := eval.NewAnswers(want.Arity())
		if err := ont.AnswerEach(context.Background(), q, opts, func(a Answer) bool {
			each.Add(a)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !each.Equal(want) {
			t.Errorf("%s: AnswerEach diverges:\n%s\nvs\n%s", q, each, want)
		}

		s, err := ont.openAnswer(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		streamed := eval.NewAnswers(want.Arity())
		for {
			a, ok, err := s.next(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			streamed.Add(a)
		}
		if !streamed.Equal(want) {
			t.Errorf("%s: the pull iterator diverges:\n%s\nvs\n%s", q, streamed, want)
		}
	}

	// A constant in the partitioning column routes the probe to exactly one
	// sub-instance; the pruned counter must say so through the stats surface.
	if _, err := ont.AnswerOptions(`q(X) :- advisor(student0_0, X) .`, opts); err != nil {
		t.Fatal(err)
	}
	if st := ont.MaterializationStats(); st.Partition.PrunedProbes == 0 {
		t.Errorf("constant-bound probe recorded no pruning: %+v", st.Partition)
	}
}

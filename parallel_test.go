package repro

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
)

// ontologyFromDatagen renders a generated rule set and instance back to
// program text and parses it into an Ontology, exercising the whole public
// pipeline.
func ontologyFromDatagen(t *testing.T, fam datagen.Family, rules int, seed int64) *Ontology {
	t.Helper()
	set := datagen.Rules(datagen.Config{Family: fam, Rules: rules, Seed: seed})
	data := datagen.Instance(set, 20, 8, seed)
	src := set.String() + "\n" + data.String()
	ont, err := Parse(src)
	if err != nil {
		t.Fatalf("re-parsing generated ontology: %v", err)
	}
	return ont
}

// TestPropertyParallelMatchesOracle is the parallelism-correctness property
// test: across seeded random ontologies, the sequential and parallel
// chase/eval pipelines, in both answering modes, must produce the textbook
// chase's certain answers (and each other's, where the reference chase does
// not terminate but a rewriting does), and classification (which parallelism
// must not perturb) identical reports.
func TestPropertyParallelMatchesOracle(t *testing.T) {
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain, datagen.FamilySticky}
	for _, fam := range families {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", fam, seed), func(t *testing.T) {
				ontSeq := ontologyFromDatagen(t, fam, 5, seed)
				ontPar := ontologyFromDatagen(t, fam, 5, seed)

				if a, b := ontSeq.Classify().String(), ontPar.Classify().String(); a != b {
					t.Fatalf("Classify() reports differ:\n%s\nvs\n%s", a, b)
				}

				// The reference is only affordable where the chase is finite: size
				// its budget from an engine run that terminated.
				var ref *oracle
				if _, err := ontSeq.AnswerOptions("q() :- nosuchpredicate(X) .", Options{Mode: ModeChase}); err == nil {
					var ok bool
					if ref, ok = oracleOf(ontSeq.Rules(), ontSeq.Data().Atoms(), 20*ontSeq.MaterializationStats().Steps+1000); !ok {
						t.Fatal("oracle over budget on a chase the engine finished")
					}
				}

				// One atomic query per predicate of the ontology.
				preds, err := ontSeq.Rules().Predicates()
				if err != nil {
					t.Fatal(err)
				}
				for p, arity := range preds {
					vars := make([]string, arity)
					for i := range vars {
						vars[i] = fmt.Sprintf("X%d", i+1)
					}
					q := fmt.Sprintf("q(%s) :- %s(%s) .", strings.Join(vars, ","), p, strings.Join(vars, ","))
					for _, mode := range []AnswerMode{ModeRewrite, ModeChase} {
						seq, errSeq := ontSeq.AnswerOptions(q, Options{Mode: mode})
						par, errPar := ontPar.AnswerOptions(q, Options{Mode: mode, Parallelism: 4})
						if (errSeq == nil) != (errPar == nil) {
							t.Fatalf("%s mode %v: error divergence: seq=%v par=%v", q, mode, errSeq, errPar)
						}
						if errSeq != nil {
							continue // budget hit in both; nothing exact to compare
						}
						if seq.String() != par.String() {
							t.Errorf("%s mode %v: answers differ:\nseq:\n%s\npar:\n%s", q, mode, seq, par)
						}
						if ref == nil {
							continue
						}
						if got, want := renderedAnswers(par), ref.answers(t, q); !slices.Equal(got, want) {
							t.Errorf("%s mode %v: answers differ from the oracle:\nengine: %v\noracle: %v", q, mode, got, want)
						}
					}
				}
			})
		}
	}
}

// TestPropertyPartitionedMatchesOracle is the chase-mode property at the
// public API: over seeded random ontologies, a chase-mode ontology with 1 or 4
// workers must produce exactly the certain answers of the textbook chase, and,
// because workers replay the very same semi-naive rounds, report exactly the
// Steps/Rounds/NullsCreated of a 1-worker build. The name dates from the
// hash-partitioned store; this is its one-store leg.
func TestPropertyPartitionedMatchesOracle(t *testing.T) {
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain, datagen.FamilySticky}
	for _, fam := range families {
		for seed := int64(1); seed <= 3; seed++ {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v/seed=%d/par=%d", fam, seed, par), func(t *testing.T) {
					base := ontologyFromDatagen(t, fam, 5, seed)
					queries := atomicQueriesOf(t, base.Rules())
					if _, err := base.AnswerOptions(queries[0], Options{Mode: ModeChase}); err != nil {
						t.Skipf("baseline chase over budget: %v", err)
					}
					baseStats := base.MaterializationStats()
					ref, ok := oracleOf(base.Rules(), base.Data().Atoms(), 20*baseStats.Steps+1000)
					if !ok {
						t.Fatalf("oracle over budget on a chase the engine finished in %d steps", baseStats.Steps)
					}

					ont := ontologyFromDatagen(t, fam, 5, seed)
					opts := Options{Mode: ModeChase, Parallelism: par}
					for _, q := range queries {
						ans, err := ont.AnswerOptions(q, opts)
						if err != nil {
							t.Fatalf("par=%d %s: %v", par, q, err)
						}
						if got, want := renderedAnswers(ans), ref.answers(t, q); !slices.Equal(got, want) {
							t.Errorf("par=%d %s: answers differ from the oracle:\nengine: %v\noracle: %v", par, q, got, want)
						}
					}
					if st := ont.MaterializationStats(); st.Steps != baseStats.Steps || st.Rounds != baseStats.Rounds ||
						st.NullsCreated != baseStats.NullsCreated {
						t.Errorf("par=%d: counters diverge from par=1: steps %d/%d rounds %d/%d nulls %d/%d",
							par, st.Steps, baseStats.Steps, st.Rounds, baseStats.Rounds,
							st.NullsCreated, baseStats.NullsCreated)
					}
				})
			}
		}
	}
}

// TestParallelModesAgree cross-checks the two expansion techniques under
// parallelism on an FO-rewritable workload: rewrite+eval and chase+eval,
// sequential and parallel, must all return the oracle's answers.
func TestParallelModesAgree(t *testing.T) {
	ont := MustParse(datagen.University().String() + "\n" + datagen.UniversityData(3, 2).String())
	ref, ok := oracleOf(ont.Rules(), ont.Data().Atoms(), 5000)
	if !ok {
		t.Fatal("oracle over budget on University")
	}
	for _, q := range []string{
		`q(X) :- person(X) .`,
		`q(X,Y) :- advisor(X,Y) .`,
		`q(X) :- professor(X) .`,
	} {
		want := ref.answers(t, q)
		for _, mode := range []AnswerMode{ModeRewrite, ModeChase} {
			for _, par := range []int{1, 4} {
				ans, err := ont.AnswerOptions(q, Options{Mode: mode, Parallelism: par})
				if err != nil {
					t.Fatalf("%s mode=%v par=%d: %v", q, mode, par, err)
				}
				if got := renderedAnswers(ans); !slices.Equal(got, want) {
					t.Errorf("%s mode=%v par=%d: answers differ from the oracle:\nengine: %v\noracle: %v", q, mode, par, got, want)
				}
			}
		}
	}
}

package repro

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
)

// parLegs are the values of the par subtest axis. Both legs run the one
// sequential chase: par sets Options.Parallelism, which is deprecated and
// ignored, so a par=4 leg checks that the field changes nothing. The axis
// goes when the field does (ROADMAP item 1).
var parLegs = []int{1, 4}

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

// TestPropertyParallelMatchesOracle is the answering property test: across
// seeded random ontologies, both answering modes must produce the textbook
// chase's certain answers (and each other's, where the reference chase does
// not terminate but a rewriting does).
func TestPropertyParallelMatchesOracle(t *testing.T) {
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain, datagen.FamilySticky}
	for _, fam := range families {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", fam, seed), func(t *testing.T) {
				ont := ontologyFromDatagen(t, fam, 5, seed)

				// The reference is only affordable where the chase is finite: size
				// its budget from an engine run that terminated.
				var ref *oracle
				if _, err := ont.AnswerCtx(bg, "q() :- nosuchpredicate(X) .", Options{Mode: ModeChase}); err == nil {
					var ok bool
					if ref, ok = oracleOf(ont.Rules(), ont.Data().Atoms(), 20*ont.MaterializationStats().Steps+1000); !ok {
						t.Fatal("oracle over budget on a chase the engine finished")
					}
				}

				// One atomic query per predicate of the ontology.
				preds, err := ont.Rules().Predicates()
				if err != nil {
					t.Fatal(err)
				}
				for p, arity := range preds {
					vars := make([]string, arity)
					for i := range vars {
						vars[i] = fmt.Sprintf("X%d", i+1)
					}
					q := fmt.Sprintf("q(%s) :- %s(%s) .", strings.Join(vars, ","), p, strings.Join(vars, ","))
					var exact [][]string // the answers of the modes that stayed in budget
					for _, mode := range []AnswerMode{ModeRewrite, ModeChase} {
						ans, err := ont.AnswerCtx(bg, q, Options{Mode: mode})
						if err != nil {
							continue // budget hit; nothing exact to compare
						}
						got := renderedAnswers(ans)
						if len(exact) > 0 && !slices.Equal(got, exact[0]) {
							t.Errorf("%s mode %v: answers differ from the other mode's:\n%v\nvs\n%v", q, mode, got, exact[0])
						}
						exact = append(exact, got)
						if ref == nil {
							continue
						}
						if want := ref.answers(t, q); !slices.Equal(got, want) {
							t.Errorf("%s mode %v: answers differ from the oracle:\nengine: %v\noracle: %v", q, mode, got, want)
						}
					}
				}
			})
		}
	}
}

// TestPropertyChaseModeMatchesOracle is the chase-mode property at the
// public API: over seeded random ontologies, a chase-mode ontology must
// produce exactly the certain answers of the textbook chase.
func TestPropertyChaseModeMatchesOracle(t *testing.T) {
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain, datagen.FamilySticky}
	for _, fam := range families {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", fam, seed), func(t *testing.T) {
				ont := ontologyFromDatagen(t, fam, 5, seed)
				queries := atomicQueriesOf(t, ont.Rules())
				opts := Options{Mode: ModeChase}
				if _, err := ont.AnswerCtx(bg, queries[0], opts); err != nil {
					t.Skipf("chase over budget: %v", err)
				}
				steps := ont.MaterializationStats().Steps
				ref, ok := oracleOf(ont.Rules(), ont.Data().Atoms(), 20*steps+1000)
				if !ok {
					t.Fatalf("oracle over budget on a chase the engine finished in %d steps", steps)
				}
				for _, q := range queries {
					ans, err := ont.AnswerCtx(bg, q, opts)
					if err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					if got, want := renderedAnswers(ans), ref.answers(t, q); !slices.Equal(got, want) {
						t.Errorf("%s: answers differ from the oracle:\nengine: %v\noracle: %v", q, got, want)
					}
				}
			})
		}
	}
}

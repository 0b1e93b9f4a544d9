package chase

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/storage"
)

// constFacts renders the null-free facts of an instance, sorted. For two
// terminated chases of the same input these must coincide: a null-free atom
// is in a terminated chase iff it is certain.
func constFacts(ins *storage.Instance) string {
	var lines []string
	for _, a := range ins.Atoms() {
		if !storage.Tuple(a.Args).HasNull() {
			lines = append(lines, a.String())
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestParallelChaseMatchesSequential chases seeded random ontologies with 1
// and 4 workers. Within budget the two runs fire the same triggers round by
// round, so every counter and the null-free fact set must agree exactly.
func TestParallelChaseMatchesSequential(t *testing.T) {
	families := []datagen.Family{
		datagen.FamilyLinear, datagen.FamilyMultilinear,
		datagen.FamilySticky, datagen.FamilyChain,
	}
	for _, fam := range families {
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("%v/seed=%d", fam, seed)
			t.Run(name, func(t *testing.T) {
				rules := datagen.Rules(datagen.Config{Family: fam, Rules: 6, Seed: seed})
				data := datagen.Instance(rules, 25, 8, seed)
				for _, variant := range []Variant{Restricted, Oblivious} {
					opts := Options{Variant: variant, MaxRounds: 30, MaxSteps: 20000}
					seq := Run(rules, data, opts)
					opts.Parallelism = 4
					par := Run(rules, data, opts)
					if seq.Terminated != par.Terminated {
						t.Fatalf("%v: Terminated: seq=%v par=%v", variant, seq.Terminated, par.Terminated)
					}
					if !seq.Terminated {
						continue // truncation order may differ; nothing exact to compare
					}
					if seq.Steps != par.Steps || seq.Rounds != par.Rounds || seq.NullsCreated != par.NullsCreated {
						t.Errorf("%v: counters differ: seq steps=%d rounds=%d nulls=%d, par steps=%d rounds=%d nulls=%d",
							variant, seq.Steps, seq.Rounds, seq.NullsCreated, par.Steps, par.Rounds, par.NullsCreated)
					}
					if sf, pf := constFacts(seq.Instance), constFacts(par.Instance); sf != pf {
						t.Errorf("%v: null-free facts differ:\nseq:\n%s\npar:\n%s", variant, sf, pf)
					}
				}
			})
		}
	}
}

// TestPartitionedChaseMatchesOracle chases seeded random ontologies with 1
// and 4 workers over the one store and compares each terminated run with the
// textbook chase: the null-free facts must be the oracle's, and the 4-worker
// run must report the counters of the 1-worker run. (The name dates from the
// hash-partitioned store, whose P = 1 leg this is.)
func TestPartitionedChaseMatchesOracle(t *testing.T) {
	families := []datagen.Family{
		datagen.FamilyLinear, datagen.FamilyMultilinear,
		datagen.FamilySticky, datagen.FamilyChain,
	}
	for _, fam := range families {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%v/seed=%d", fam, seed)
			t.Run(name, func(t *testing.T) {
				rules := datagen.Rules(datagen.Config{Family: fam, Rules: 6, Seed: seed})
				data := datagen.Instance(rules, 25, 8, seed)
				for _, variant := range []Variant{Restricted, Oblivious} {
					opts := Options{Variant: variant, MaxRounds: 30, MaxSteps: 20000}
					base := Run(rules, data, opts)
					if !base.Terminated {
						continue // truncation order may differ; nothing exact to compare
					}
					want, ok := oracleFacts(rules, data.Atoms(), variant)
					if !ok {
						t.Fatalf("%v: oracle over budget on a chase the engine finished in %d steps", variant, base.Steps)
					}
					for _, par := range []int{1, 4} {
						popts := opts
						popts.Parallelism = par
						res := Run(rules, data, popts)
						tag := fmt.Sprintf("%v par=%d", variant, par)
						if !res.Terminated {
							t.Fatalf("%s: truncated where par=1 terminated", tag)
						}
						if got := constFacts(res.Instance); got != want {
							t.Errorf("%s: null-free facts differ from the oracle:\noracle:\n%s\nengine:\n%s", tag, want, got)
						}
						if base.Steps != res.Steps || base.Rounds != res.Rounds || base.NullsCreated != res.NullsCreated {
							t.Errorf("%s: counters differ from par=1: steps %d/%d rounds %d/%d nulls %d/%d",
								tag, res.Steps, base.Steps, res.Rounds, base.Rounds, res.NullsCreated, base.NullsCreated)
						}
					}
				}
			})
		}
	}
}

// TestParallelCertainAnswersMatchSequential compares end-to-end certain
// answers (chase + UCQ evaluation, both parallel) on the university
// workload.
func TestParallelCertainAnswersMatchSequential(t *testing.T) {
	rules := datagen.University()
	data := datagen.UniversityData(4, 1)
	for _, qs := range []string{
		`q(X) :- person(X) .`,
		`q(X,Y) :- advisor(X,Y), professor(Y) .`,
		`q(X) :- takesCourse(X, C), course(C) .`,
	} {
		pq := parser.MustParseQuery(qs)
		u := query.MustNewUCQ(query.MustNew(pq.Head, pq.Body))
		ansSeq, resSeq := CertainAnswers(u, rules, data, Options{})
		ansPar, resPar := CertainAnswers(u, rules, data, Options{Parallelism: 4})
		if !resSeq.Terminated || !resPar.Terminated {
			t.Fatalf("%s: university chase must terminate", qs)
		}
		if !ansSeq.Equal(ansPar) {
			t.Errorf("%s: answers differ: seq=%d par=%d", qs, ansSeq.Len(), ansPar.Len())
		}
		if ansSeq.String() != ansPar.String() {
			t.Errorf("%s: sorted renderings differ", qs)
		}
	}
}

// TestObliviousFiresPerFrontierNotPerBodyBinding pins the semi-oblivious
// semantics under the semi-naive engine: rebinding an existential *body*
// variable (here Y, to the null just invented) must not re-fire the rule,
// or `a(X,Y) -> a(X,Z)` would run forever.
func TestObliviousFiresPerFrontierNotPerBodyBinding(t *testing.T) {
	rules := parser.MustParseRules(`a(X,Y) -> a(X,Z) .`)
	d := storage.MustFromAtoms([]logic.Atom{
		logic.NewAtom("a", logic.NewConst("1"), logic.NewConst("2")),
	})
	for _, p := range []int{1, 4} {
		res := Run(rules, d, Options{Variant: Oblivious, MaxRounds: 50, Parallelism: p})
		if !res.Terminated {
			t.Fatalf("p=%d: semi-oblivious chase must terminate (ran %d rounds)", p, res.Rounds)
		}
		if res.Steps != 1 || res.NullsCreated != 1 {
			t.Errorf("p=%d: fired %d steps, %d nulls; want 1 and 1", p, res.Steps, res.NullsCreated)
		}
	}
}

// TestParallelChaseSharedNulls checks that multi-head existentials still
// share one null per trigger under the parallel path.
func TestParallelChaseSharedNulls(t *testing.T) {
	rules := parser.MustParseRules(`emp(X) -> worksFor(X,Y), dept(Y) .`)
	d := storage.MustFromAtoms([]logic.Atom{
		logic.NewAtom("emp", logic.NewConst("e1")),
		logic.NewAtom("emp", logic.NewConst("e2")),
		logic.NewAtom("emp", logic.NewConst("e3")),
	})
	res := Run(rules, d, Options{Parallelism: 3})
	if !res.Terminated {
		t.Fatal("must terminate")
	}
	wf := res.Instance.Relation("worksFor")
	dp := res.Instance.Relation("dept")
	if wf.Len() != 3 || dp.Len() != 3 {
		t.Fatalf("worksFor=%d dept=%d, want 3 and 3", wf.Len(), dp.Len())
	}
	for _, tu := range wf.Tuples() {
		if !tu[1].IsNull() || !dp.Contains(storage.Tuple{tu[1]}) {
			t.Errorf("null %v not shared with dept", tu[1])
		}
	}
	if res.NullsCreated != 3 {
		t.Errorf("NullsCreated = %d, want 3", res.NullsCreated)
	}
}

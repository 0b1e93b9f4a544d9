package rewrite

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/chase"
	"repro/internal/datagen"
	"repro/internal/dependency"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/naive"
	"repro/internal/parser"
	"repro/internal/pnode"
	"repro/internal/posgraph"
	"repro/internal/query"
)

// atomicQueryFor builds q(X1..Xk) :- p(X1..Xk) for a predicate of the set.
func atomicQueryFor(set *dependency.Set, pred string, arity int) *query.CQ {
	args := make([]logic.Term, arity)
	for i := range args {
		args[i] = logic.NewVar(fmt.Sprintf("X%d", i+1))
	}
	return query.MustNew(
		logic.NewAtom("ans", args...),
		[]logic.Atom{logic.NewAtom(pred, args...)})
}

// certifiedSet is a rule set the classifier certifies FO-rewritable, with
// the certificate.
type certifiedSet struct {
	name, cert string
	set        *dependency.Set
}

// certifiedSets returns every generated set (each datagen family at 4 rules,
// seeds 0–11) that SWR or, failing that, WR certifies, plus the paper's
// Example 3 and University, which only WR certifies.
func certifiedSets() []certifiedSet {
	var out []certifiedSet
	add := func(name string, set *dependency.Set) {
		switch {
		case posgraph.Check(set).SWR:
			out = append(out, certifiedSet{name, "swr", set})
		case pnode.Check(set).WR:
			out = append(out, certifiedSet{name, "wr", set})
		}
	}
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyMultilinear, datagen.FamilySticky, datagen.FamilyChain}
	for _, fam := range families {
		for seed := int64(0); seed < 12; seed++ {
			add(fmt.Sprintf("%s/%d", fam, seed), datagen.Rules(datagen.Config{Family: fam, Rules: 4, Seed: seed}))
		}
	}
	add("example3", parser.MustParseRules(example3))
	add("university", datagen.University())
	return out
}

// TestSWRImpliesTerminatingRewriting is the computational content of the
// paper's Theorem 1 and of its WR generalization over generated workloads:
// for every set SWR or WR certifies, the rewriting of every atomic query
// over a head predicate, and of two-atom joins over them, reaches a fixpoint
// within a generous budget. Where the chase of a random instance terminates,
// the rewriting's answers equal the chase's certain answers, and both equal
// the test-only reference's (internal/naive: its textbook chase, and its
// nested-loop evaluation of the query and of the rewriting).
func TestSWRImpliesTerminatingRewriting(t *testing.T) {
	checked, agreed := map[string]int{}, map[string]int{}
	joins := 0
	for i, cs := range certifiedSets() {
		set := cs.set
		sig, err := set.Predicates()
		if err != nil {
			t.Fatal(err)
		}
		heads := set.HeadPredicates()
		var qs []*query.CQ
		for _, pred := range heads {
			qs = append(qs, atomicQueryFor(set, pred, sig[pred]))
		}
		// One join per pair of consecutive head predicates: joinQueries
		// with n = 1 joins preds[1] and preds[2] of the rotated list.
		if len(heads) > 1 {
			for j := range heads {
				rotated := append(append([]string{}, heads[j:]...), heads[:j]...)
				qs = append(qs, joinQueries(set, rotated, 1)[1])
			}
		}
		data := datagen.Instance(set, 6, 4, int64(i))
		facts := data.Atoms()
		// The reference chase runs only where the engine's terminates: on a
		// diverging set its nested loops would take minutes to exhaust any
		// budget.
		var chased []logic.Atom
		run := chase.Run(set, data, chase.Options{MaxSteps: 20000})
		chaseOK := run.Terminated
		if chaseOK {
			if chased, chaseOK = naive.Chase(set, facts, false, 20000); !chaseOK {
				t.Errorf("%s: the engine's chase terminates, the reference chase does not", cs.name)
			}
		}
		for _, q := range qs {
			res := Rewrite(q, set, Options{MaxCQs: 2000})
			checked[cs.cert]++
			if len(q.Body) > 1 {
				joins++
			}
			if !res.Complete {
				t.Errorf("%s (%s): rewriting of %s diverged\n%s", cs.name, cs.cert, q, set)
				continue
			}
			rw := naive.RenderAll(eval.UCQ(res.UCQ, data, eval.Options{FilterNulls: true}).Tuples())
			if ref := naive.Answers(res.UCQ, facts); !slices.Equal(rw, ref) {
				t.Errorf("%s: %s: engine and reference evaluate the rewriting differently\n%v\n%v", cs.name, q, rw, ref)
			}
			if !chaseOK {
				continue
			}
			agreed[cs.cert]++
			chAns := naive.RenderAll(eval.UCQ(query.MustNewUCQ(q), run.Instance, eval.Options{FilterNulls: true}).Tuples())
			ref := naive.Answers(query.MustNewUCQ(q), chased)
			if !slices.Equal(rw, chAns) || !slices.Equal(chAns, ref) {
				t.Errorf("%s (%s): %s: rewriting %v, chase %v, reference chase %v\nrules:\n%s",
					cs.name, cs.cert, q, rw, chAns, ref, set)
			}
		}
	}
	t.Logf("rewritings checked %v (%d joins), agreement checks %v", checked, joins, agreed)
	if checked["swr"] < 40 || checked["wr"] < 10 || joins < 20 {
		t.Errorf("too few rewritings exercised: %v, %d joins", checked, joins)
	}
	if agreed["swr"] < 20 || agreed["wr"] < 5 {
		t.Errorf("too few agreement checks: %v", agreed)
	}
}

// TestRewriteChaseAgreementRandom is the semantic soundness-and-completeness
// cross-check (paper Definition 1): over random FO-rewritable ontologies and
// random instances, evaluating the rewriting equals evaluating the query on
// the (terminated) chase.
func TestRewriteChaseAgreementRandom(t *testing.T) {
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyMultilinear, datagen.FamilySticky}
	agreements := 0
	for _, fam := range families {
		for seed := int64(0); seed < 10; seed++ {
			set := datagen.Rules(datagen.Config{Family: fam, Rules: 3, Seed: seed})
			if !posgraph.Check(set).SWR {
				continue
			}
			sig, err := set.Predicates()
			if err != nil {
				t.Fatal(err)
			}
			data := datagen.Instance(set, 6, 4, seed)
			for _, pred := range set.HeadPredicates() {
				q := atomicQueryFor(set, pred, sig[pred])
				res := Rewrite(q, set, Options{MaxCQs: 2000})
				if !res.Complete {
					continue // covered by the theorem test above
				}
				chAns, chRes := chase.CertainAnswers(query.MustNewUCQ(q), set, data,
					chase.Options{MaxRounds: 60, MaxSteps: 30000})
				if !chRes.Terminated {
					// The chase may legitimately diverge on existential
					// cycles; a truncated chase only under-approximates.
					rwAns := eval.UCQ(res.UCQ, data, eval.Options{FilterNulls: true})
					if diff := chAns.Minus(rwAns); len(diff) != 0 {
						t.Errorf("family %v seed %d pred %s: chase found answers the rewriting missed: %v",
							fam, seed, pred, diff)
					}
					continue
				}
				rwAns := eval.UCQ(res.UCQ, data, eval.Options{FilterNulls: true})
				agreements++
				if !rwAns.Equal(chAns) {
					t.Errorf("family %v seed %d pred %s: rewriting and chase disagree\nrewrite: %v\nchase: %v\nrules:\n%s",
						fam, seed, pred, rwAns, chAns, set)
				}
			}
		}
	}
	if agreements < 15 {
		t.Errorf("too few agreement checks completed (%d)", agreements)
	}
}

// TestRewritingSoundOnArbitrarySets checks pure soundness with no class
// assumption: even for chain-family sets that may not be FO-rewritable,
// every answer of a (possibly truncated) rewriting is a certain answer
// (contained in the terminated chase's answers).
func TestRewritingSoundOnArbitrarySets(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		set := datagen.Rules(datagen.Config{Family: datagen.FamilyChain, Rules: 4, Seed: seed})
		sig, err := set.Predicates()
		if err != nil {
			t.Fatal(err)
		}
		data := datagen.Instance(set, 5, 3, seed)
		for _, pred := range set.HeadPredicates() {
			q := atomicQueryFor(set, pred, sig[pred])
			res := Rewrite(q, set, Options{MaxCQs: 150})
			chAns, chRes := chase.CertainAnswers(query.MustNewUCQ(q), set, data,
				chase.Options{MaxRounds: 80, MaxSteps: 50000})
			if !chRes.Terminated {
				continue
			}
			rwAns := eval.UCQ(res.UCQ, data, eval.Options{FilterNulls: true})
			if diff := rwAns.Minus(chAns); len(diff) != 0 {
				t.Errorf("seed %d pred %s: rewriting returned non-certain answers %v\nrules:\n%s",
					seed, pred, diff, set)
			}
			if res.Complete {
				if diff := chAns.Minus(rwAns); len(diff) != 0 {
					t.Errorf("seed %d pred %s: complete rewriting missed certain answers %v\nrules:\n%s",
						seed, pred, diff, set)
				}
			}
		}
	}
}

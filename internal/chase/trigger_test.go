package chase

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dependency"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/storage"
)

// TestSequentialChaseDeterministic: a chase is a function of its input. The
// round barrier appends the next delta in the order its facts were first
// written, so every run lands the same tuples in the same order, fires the
// next round in the same order and names its nulls the same. Across commits
// the same is pinned by TestGoldenChaseCounters' digests.
func TestSequentialChaseDeterministic(t *testing.T) {
	rules, data := datagen.University(), datagen.UniversityData(5, 1)
	first := Run(rules, data, Options{})
	if !first.Terminated {
		t.Fatal("University must chase to a fixpoint")
	}
	for run := 1; run < 20; run++ {
		res := Run(rules, data, Options{})
		if got, want := res.Instance.String(), first.Instance.String(); got != want {
			t.Fatalf("run %d: instance differs from run 0:\n%s\nvs\n%s", run, got, want)
		}
		for _, pred := range first.Instance.Predicates() {
			want := first.Instance.Relation(pred).Tuples()
			got := res.Instance.Relation(pred).Tuples()
			for i := range want {
				if got[i].Key() != want[i].Key() {
					t.Fatalf("run %d: %s tuple %d is %v, run 0 has %v", run, pred, i, got[i], want[i])
				}
			}
		}
	}
}

// TestChaseAllocsPerDerivedFact bounds what one derived fact costs in heap
// allocations: the difference in allocations between chasing two University
// sizes, divided by the difference in derived facts, so the fixed cost of a
// run (plans, templates, the input copy) drops out. A trigger that carries a
// substitution map or a key, or a fact keyed or copied once per hop from
// delta to relation, costs about 25; rows, templates and one key per fact
// cost about 3.
func TestChaseAllocsPerDerivedFact(t *testing.T) {
	rules := datagen.University()
	measure := func(depts int) (allocs float64, derived int) {
		data := datagen.UniversityData(depts, 1)
		allocs = testing.AllocsPerRun(3, func() {
			res := Run(rules, data, Options{Parallelism: 1})
			derived = res.Instance.Size() - data.Size()
		})
		return allocs, derived
	}
	a1, d1 := measure(10)
	a2, d2 := measure(40)
	perFact := (a2 - a1) / float64(d2-d1)
	t.Logf("%.0f allocations for %d derived facts, %.0f for %d: %.2f per derived fact", a1, d1, a2, d2, perFact)
	if perFact > 10 {
		t.Errorf("%.2f allocations per derived fact, want at most 10", perFact)
	}
}

// TestCollectTriggersMatchesNaive pins what the firing loop relies on now
// that triggers are deduplicated only across tasks: collectTriggers returns
// each (rule, row) once, and exactly the body homomorphisms into the
// instance that map some body atom into the delta — enumerated here the
// slow way, with eval.Matches and a delta-membership filter. Instances are
// partly chased (so they hold nulls) and deltas are random subsets, or the
// whole instance as in a from-scratch run.
func TestCollectTriggersMatchesNaive(t *testing.T) {
	type program struct {
		name  string
		rules *dependency.Set
		data  *storage.Instance
	}
	var progs []program
	for _, fam := range []datagen.Family{datagen.FamilyLinear, datagen.FamilyMultilinear, datagen.FamilySticky} {
		for seed := int64(1); seed <= 3; seed++ {
			rules := datagen.Rules(datagen.Config{Family: fam, Rules: 6, Seed: seed})
			progs = append(progs, program{fmt.Sprintf("%v/seed=%d", fam, seed), rules, datagen.Instance(rules, 25, 8, seed)})
		}
	}
	progs = append(progs, program{"university", datagen.University(), datagen.UniversityData(3, 1)})
	// Repeated variables, constants, and joins whose atoms can all be in
	// the delta at once.
	hand := parser.MustParseRules(`
		e(X,Y), e(Y,Z) -> e(X,Z) .
		e(X,X) -> loop(X) .
		e(X,Y), e(Y,X) -> sym(X,Y) .
		p(X,a), q(a,X) -> r(X) .
		p(X,Y), q(Y,X), p(Y,Y) -> s(X,Y,Z) .
		e(X,Y), p(X,Y) -> q(Y,W), q(W,X) .
	`)
	facts, err := parser.ParseFacts(`
		e(c1,c2) . e(c2,c3) . e(c3,c1) . e(c2,c2) . e(c3,c4) . e(c4,c3) . e(c1,a) .
		p(c1,a) . p(c2,a) . p(a,a) . p(c2,c1) . p(c3,c4) . p(c1,c1) . p(c1,c2) .
		q(a,c1) . q(a,c3) . q(c1,c2) . q(a,a) . q(c4,c3) .
	`)
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, program{"hand-built", hand, storage.MustFromAtoms(facts)})

	for _, pg := range progs {
		// A short chase puts nulls and derived facts into the instance.
		ins := Run(pg.rules, pg.data, Options{MaxRounds: 2, MaxSteps: 2000}).Instance
		rng := rand.New(rand.NewSource(int64(len(pg.name))))
		for trial := 0; trial < 4; trial++ {
			delta := ins
			if trial > 0 {
				delta = storage.NewInstance()
				for _, a := range ins.Atoms() {
					if rng.Intn(4) == 0 {
						if _, err := delta.Insert(a); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			want := naiveTriggers(pg.rules, ins, delta)
			ps := newPlanSet(pg.rules)
			got := make(map[string]bool)
			for _, tr := range collectTriggers(context.Background(), pg.rules, ins, delta, ps, 0) {
				k := triggerString(int(tr.rule), tr.row)
				if got[k] {
					t.Errorf("%s/trial=%d: trigger %s collected twice", pg.name, trial, k)
				}
				got[k] = true
			}
			if g, w := sortedKeys(got), sortedKeys(want); g != w {
				t.Errorf("%s/trial=%d: triggers differ from the naive enumeration:\ngot:\n%s\nwant:\n%s",
					pg.name, trial, g, w)
			}
		}
	}
}

// naiveTriggers enumerates every body homomorphism of every rule into ins
// that maps at least one body atom into delta, as triggerString keys.
func naiveTriggers(rules *dependency.Set, ins, delta *storage.Instance) map[string]bool {
	out := make(map[string]bool)
	for ri, rule := range rules.Rules {
		vars := rule.BodyVars()
		eval.Matches(rule.Body, ins, func(s logic.Subst) bool {
			for _, b := range rule.Body {
				if delta.ContainsAtom(s.ApplyAtom(b)) {
					row := make([]logic.Term, len(vars))
					for i, v := range vars {
						row[i] = s.Walk(v)
					}
					out[triggerString(ri, row)] = true
					break
				}
			}
			return true
		})
	}
	return out
}

func triggerString(rule int, row []logic.Term) string {
	return fmt.Sprintf("%d%v", rule, row)
}

func sortedKeys(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

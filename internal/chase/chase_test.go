package chase

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/naive"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/storage"
)

func c(n string) logic.Term { return logic.NewConst(n) }
func at(p string, args ...logic.Term) logic.Atom {
	return logic.NewAtom(p, args...)
}

func data(atoms ...logic.Atom) *storage.Instance {
	return storage.MustFromAtoms(atoms)
}

func TestChaseTransitiveClosure(t *testing.T) {
	rules := parser.MustParseRules(`e(X,Y), e(Y,Z) -> e(X,Z) .`)
	d := data(at("e", c("1"), c("2")), at("e", c("2"), c("3")), at("e", c("3"), c("4")))
	res := Run(rules, d, Options{})
	if !res.Terminated {
		t.Fatal("transitive closure chase must terminate")
	}
	want := [][2]string{{"1", "3"}, {"1", "4"}, {"2", "4"}}
	for _, w := range want {
		if !res.Instance.ContainsAtom(at("e", c(w[0]), c(w[1]))) {
			t.Errorf("missing derived fact e(%s,%s)", w[0], w[1])
		}
	}
	if res.Instance.Relation("e").Len() != 6 {
		t.Errorf("closure size = %d, want 6", res.Instance.Relation("e").Len())
	}
	if res.NullsCreated != 0 {
		t.Errorf("full TGD without existentials created %d nulls", res.NullsCreated)
	}
}

func TestChaseInventsNulls(t *testing.T) {
	rules := parser.MustParseRules(`person(X) -> hasParent(X,Y) .`)
	d := data(at("person", c("alice")))
	res := Run(rules, d, Options{})
	if !res.Terminated {
		t.Fatal("must terminate")
	}
	rel := res.Instance.Relation("hasParent")
	if rel == nil || rel.Len() != 1 {
		t.Fatalf("hasParent = %v", rel)
	}
	tuple := rel.Tuples()[0]
	if tuple[0] != c("alice") || !tuple[1].IsNull() {
		t.Errorf("tuple = %v, want (alice, null)", tuple)
	}
	if res.NullsCreated != 1 {
		t.Errorf("NullsCreated = %d", res.NullsCreated)
	}
}

func TestRestrictedChaseDoesNotRefire(t *testing.T) {
	// hasParent(X,Y) exists already: restricted chase must not invent
	// another parent for alice.
	rules := parser.MustParseRules(`person(X) -> hasParent(X,Y) .`)
	d := data(at("person", c("alice")), at("hasParent", c("alice"), c("bob")))
	res := Run(rules, d, Options{Variant: Restricted})
	if res.Steps != 0 {
		t.Errorf("restricted chase fired %d steps, want 0", res.Steps)
	}
	if res.Instance.Size() != 2 {
		t.Errorf("instance grew: %v", res.Instance)
	}
}

func TestObliviousChaseFiresAnyway(t *testing.T) {
	rules := parser.MustParseRules(`person(X) -> hasParent(X,Y) .`)
	d := data(at("person", c("alice")), at("hasParent", c("alice"), c("bob")))
	res := Run(rules, d, Options{Variant: Oblivious})
	if res.Steps != 1 {
		t.Errorf("oblivious chase fired %d steps, want 1", res.Steps)
	}
	if res.Instance.Relation("hasParent").Len() != 2 {
		t.Errorf("oblivious chase must add the null parent")
	}
}

func TestObliviousChaseFiresOncePerFrontier(t *testing.T) {
	rules := parser.MustParseRules(`person(X) -> hasParent(X,Y) .`)
	d := data(at("person", c("alice")))
	res := Run(rules, d, Options{Variant: Oblivious, MaxRounds: 50})
	if !res.Terminated {
		t.Fatal("semi-oblivious run must reach a fixpoint here")
	}
	if res.Steps != 1 {
		t.Errorf("trigger must fire once, fired %d", res.Steps)
	}
}

func TestChaseMultiHeadSharesNull(t *testing.T) {
	// The same existential Y must appear in both head atoms.
	rules := parser.MustParseRules(`emp(X) -> worksFor(X,Y), dept(Y) .`)
	d := data(at("emp", c("e1")))
	res := Run(rules, d, Options{})
	wf := res.Instance.Relation("worksFor").Tuples()[0]
	dp := res.Instance.Relation("dept").Tuples()[0]
	if !wf[1].IsNull() || wf[1] != dp[0] {
		t.Errorf("null must be shared across head atoms: %v vs %v", wf, dp)
	}
}

func TestChaseNonTerminatingTruncates(t *testing.T) {
	// Classic diverging rule under the restricted chase.
	rules := parser.MustParseRules(`r(X,Y) -> r(Y,Z) .`)
	d := data(at("r", c("a"), c("b")))
	res := Run(rules, d, Options{MaxRounds: 10})
	if res.Terminated {
		// With restricted chase this CAN terminate: r(Y,Z) is satisfied by
		// later facts... verify it stopped within budget either way.
		t.Logf("restricted chase terminated after %d rounds", res.Rounds)
	}
	if res.Rounds > 10 {
		t.Errorf("rounds budget exceeded: %d", res.Rounds)
	}
}

func TestChaseExample2Terminates(t *testing.T) {
	// Paper Example 2: the set is not FO-rewritable (the rewriting builds an
	// unbounded chain), yet it is weakly acyclic, so its chase terminates on
	// every instance — a nice illustration that chase termination and
	// FO-rewritability are orthogonal.
	rules := parser.MustParseRules(`
t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .
s(Y1,Y1,Y2) -> r(Y2,Y3) .
`)
	d := data(at("t", c("a"), c("a")), at("r", c("a"), c("b")))
	res := Run(rules, d, Options{Variant: Oblivious, MaxRounds: 100, MaxSteps: 10000})
	if !res.Terminated {
		t.Errorf("Example 2 chase must terminate (weakly acyclic); steps=%d rounds=%d",
			res.Steps, res.Rounds)
	}
	if !res.Instance.ContainsAtom(at("s", c("a"), c("a"), c("a"))) {
		t.Error("chase must derive s(a,a,a)")
	}
	rel := res.Instance.Relation("r")
	if rel == nil || rel.Len() != 2 {
		t.Errorf("chase must derive one new r fact, have %v", rel.Tuples())
	}
}

func TestChaseStepBudget(t *testing.T) {
	rules := parser.MustParseRules(`p(X) -> q(X,Y) . q(X,Y) -> p(Y) .`)
	d := data(at("p", c("a")))
	res := Run(rules, d, Options{MaxSteps: 5})
	if res.Steps > 5 {
		t.Errorf("step budget exceeded: %d", res.Steps)
	}
	if res.Terminated {
		t.Error("budget-truncated run must not report termination")
	}
}

func TestChaseInputNotMutated(t *testing.T) {
	rules := parser.MustParseRules(`p(X) -> q(X) .`)
	d := data(at("p", c("a")))
	Run(rules, d, Options{})
	if d.Relation("q") != nil {
		t.Error("chase must not mutate its input instance")
	}
}

func TestCertainAnswersFilterNulls(t *testing.T) {
	rules := parser.MustParseRules(`person(X) -> hasParent(X,Y) .`)
	d := data(at("person", c("alice")))
	u := query.MustNewUCQ(query.MustNew(
		at("q", logic.NewVar("X"), logic.NewVar("Y")),
		[]logic.Atom{at("hasParent", logic.NewVar("X"), logic.NewVar("Y"))}))
	ans, res := CertainAnswers(u, rules, d, Options{})
	if !res.Terminated {
		t.Fatal("chase must terminate")
	}
	if ans.Len() != 0 {
		t.Errorf("null-containing tuples are not certain answers: %v", ans)
	}
	// But the boolean projection IS certain.
	b := query.MustNew(at("q", logic.NewVar("X")),
		[]logic.Atom{at("hasParent", logic.NewVar("X"), logic.NewVar("Y"))})
	ans2, _ := CertainAnswers(query.MustNewUCQ(b), rules, d, Options{})
	if ans2.Len() != 1 {
		t.Errorf("alice has some parent: %v", ans2)
	}
}

func TestEntails(t *testing.T) {
	rules := parser.MustParseRules(`cat(X) -> animal(X) .`)
	d := data(at("cat", c("tom")))
	q := query.MustNew(at("q"), []logic.Atom{at("animal", c("tom"))})
	ok, res := Entails(q, rules, d, Options{})
	if !ok || !res.Terminated {
		t.Error("cat(tom) entails animal(tom)")
	}
	q2 := query.MustNew(at("q"), []logic.Atom{at("animal", c("rex"))})
	if ok, _ := Entails(q2, rules, d, Options{}); ok {
		t.Error("animal(rex) is not entailed")
	}
}

func TestChaseHierarchy(t *testing.T) {
	// A DL-Lite style class hierarchy chases in one round per level.
	rules := parser.MustParseRules(`
student(X) -> person(X) .
person(X) -> agent(X) .
agent(X) -> thing(X) .
`)
	d := data(at("student", c("s1")))
	res := Run(rules, d, Options{})
	if !res.Terminated {
		t.Fatal("hierarchy chase must terminate")
	}
	for _, p := range []string{"person", "agent", "thing"} {
		if !res.Instance.ContainsAtom(at(p, c("s1"))) {
			t.Errorf("missing %s(s1)", p)
		}
	}
}

func TestVariantString(t *testing.T) {
	if Restricted.String() != "restricted" || Oblivious.String() != "oblivious" {
		t.Error("Variant.String wrong")
	}
}

// naiveBudget bounds the reference chase; comparisons are skipped when the
// oracle needs more (the engine run it would be compared to is tiny).
const naiveBudget = 5000

// oracleFacts returns the null-free facts of the textbook chase of data under
// rules, newline-joined like constFacts, or ok=false past naiveBudget.
func oracleFacts(rules *dependency.Set, data []logic.Atom, variant Variant) (string, bool) {
	chased, ok := naive.Chase(rules, data, variant == Oblivious, naiveBudget)
	return strings.Join(naive.GroundFacts(chased), "\n"), ok
}

// TestGoldenChaseCounters pins Steps/Rounds/NullsCreated of the chase driver
// to the values the pre-unification classic driver (commit 6f0abc1) produced
// on the fixed-seed datagen families (Rules 6, 25 tuples, domain 8, MaxRounds
// 30, MaxSteps 20000) and on University(4 departments, seed 1, default
// budgets), both variants: what still checks "counters identical to the old
// classic driver" now that it is gone. Truncated rows are pinned too — at one
// worker truncation is deterministic; under 4 workers only a round-budget
// truncation is.
func TestGoldenChaseCounters(t *testing.T) {
	type row struct {
		family               string
		seed                 int64
		variant              Variant
		terminated           bool
		steps, rounds, nulls int
	}
	golden := []row{
		{"linear", 1, Restricted, false, 20000, 24, 24568},
		{"linear", 1, Oblivious, false, 20000, 18, 24528},
		{"linear", 2, Restricted, false, 1690, 30, 1176},
		{"linear", 2, Oblivious, false, 2561, 30, 1779},
		{"linear", 3, Restricted, true, 6, 3, 1},
		{"linear", 3, Oblivious, true, 51, 4, 10},
		{"multilinear", 1, Restricted, true, 14, 2, 14},
		{"multilinear", 1, Oblivious, true, 49, 2, 20},
		{"multilinear", 2, Restricted, true, 7, 2, 0},
		{"multilinear", 2, Oblivious, true, 35, 3, 36},
		{"multilinear", 3, Restricted, false, 190, 30, 300},
		{"multilinear", 3, Oblivious, false, 330, 30, 484},
		{"sticky", 1, Restricted, true, 7, 2, 14},
		{"sticky", 1, Oblivious, true, 48, 2, 56},
		{"sticky", 2, Restricted, true, 8, 2, 10},
		{"sticky", 2, Oblivious, true, 48, 3, 72},
		{"sticky", 3, Restricted, true, 2, 2, 3},
		{"sticky", 3, Oblivious, true, 42, 3, 55},
		{"chain", 1, Restricted, false, 20000, 24, 24568},
		{"chain", 1, Oblivious, false, 20000, 18, 24528},
		{"chain", 2, Restricted, false, 1690, 30, 1176},
		{"chain", 2, Oblivious, false, 2561, 30, 1779},
		{"chain", 3, Restricted, true, 6, 3, 1},
		{"chain", 3, Oblivious, true, 51, 4, 10},
		{"university", 1, Restricted, true, 244, 3, 4},
		{"university", 1, Oblivious, true, 540, 7, 104},
	}
	families := map[string]datagen.Family{
		"linear": datagen.FamilyLinear, "multilinear": datagen.FamilyMultilinear,
		"sticky": datagen.FamilySticky, "chain": datagen.FamilyChain,
	}
	for _, g := range golden {
		opts := Options{Variant: g.variant}
		rules, data := datagen.University(), datagen.UniversityData(4, g.seed)
		if fam, ok := families[g.family]; ok {
			opts.MaxRounds, opts.MaxSteps = 30, 20000
			rules = datagen.Rules(datagen.Config{Family: fam, Rules: 6, Seed: g.seed})
			data = datagen.Instance(rules, 25, 8, g.seed)
		}
		for _, par := range []int{1, 4} {
			if par > 1 && g.steps == opts.MaxSteps {
				continue // which triggers beat a step-budget truncation is a race
			}
			opts.Parallelism = par
			res := Run(rules, data, opts)
			if res.Terminated != g.terminated || res.Steps != g.steps || res.Rounds != g.rounds || res.NullsCreated != g.nulls {
				t.Errorf("%s/seed=%d/%v/par=%d: terminated=%v steps=%d rounds=%d nulls=%d, golden %v %d %d %d",
					g.family, g.seed, g.variant, par, res.Terminated, res.Steps, res.Rounds, res.NullsCreated,
					g.terminated, g.steps, g.rounds, g.nulls)
			}
		}
	}
}

// TestPartitionedMutationMatchesOracle is the ontology-evolution property
// over the one driver, sequential and parallel: a random interleaving of
// ExtendRules, DeleteRule, Extend and Delete must leave the null-free fact set
// of the textbook chase of the final rule set over the surviving base facts.
// The name and the P=1 in the subtest names date from the hash-partitioned
// store, whose one-partition leg this is.
func TestPartitionedMutationMatchesOracle(t *testing.T) {
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain}
	for _, fam := range families {
		for seed := int64(1); seed <= 3; seed++ {
			for _, variant := range []Variant{Restricted, Oblivious} {
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("%v/seed=%d/%v/par=%d/P=1", fam, seed, variant, par)
					t.Run(name, func(t *testing.T) {
						full := datagen.Rules(datagen.Config{Family: fam, Rules: 8, Seed: seed})
						data := datagen.Instance(full, 20, 8, seed)
						opts := Options{Variant: variant, MaxRounds: 60, MaxSteps: 40000, Parallelism: par, TrackProvenance: true}

						cur := dependency.MustNewSet(full.Rules[:5]...)
						reserve := full.Rules[5:]

						baseAtoms := data.Atoms()
						rng := rand.New(rand.NewSource(seed * 70001))
						rng.Shuffle(len(baseAtoms), func(i, j int) { baseAtoms[i], baseAtoms[j] = baseAtoms[j], baseAtoms[i] })
						cut := 3 * len(baseAtoms) / 4
						baseIns := storage.MustFromAtoms(baseAtoms[:cut])
						factReserve := baseAtoms[cut:]

						st := NewState(opts)
						store := baseIns.Clone()
						if res := st.Resume(cur, store, store); !res.Terminated {
							t.Skip("initial chase truncated; nothing exact to compare")
						}

						for step := 0; step < 16; step++ {
							switch op := rng.Intn(4); {
							case op == 0 && len(reserve) > 0: // add a rule
								next, err := cur.WithRule(reserve[0])
								if err != nil {
									t.Fatal(err)
								}
								reserve = reserve[1:]
								if res := st.ExtendRules(next, store, cur.Len()); !res.Terminated {
									t.Skip("rule-extension increment truncated")
								}
								cur = next
							case op == 1 && cur.Len() > 1: // drop a rule
								ri := rng.Intn(cur.Len())
								next, err := cur.WithoutRule(ri)
								if err != nil {
									t.Fatal(err)
								}
								dres, err := st.DeleteRule(next, store, ri, baseIns)
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
								res, err := st.Extend(cur, store, factReserve[:n])
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
								dres, err := st.DeleteCtx(t.Context(), cur, store, []logic.Atom{victim}, baseIns)
								if err != nil {
									t.Fatal(err)
								}
								if !dres.Result.Terminated {
									t.Skip("deletion repair truncated")
								}
							}
						}

						want, ok := oracleFacts(cur, baseIns.Atoms(), variant)
						if !ok {
							t.Skip("oracle chase of the final state over budget")
						}
						if got := constFacts(store); got != want {
							t.Errorf("null-free facts differ after mutations:\noracle:\n%s\nincremental:\n%s", want, got)
						}
					})
				}
			}
		}
	}
}

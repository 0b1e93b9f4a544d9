package chase

import (
	"crypto/sha256"
	"encoding/hex"
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
	res := Run(rules, d, Options{})
	if res.Steps != 0 {
		t.Errorf("restricted chase fired %d steps, want 0", res.Steps)
	}
	if res.Instance.Size() != 2 {
		t.Errorf("instance grew: %v", res.Instance)
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
	res := Run(rules, d, Options{MaxRounds: 100, MaxSteps: 10000})
	if !res.Terminated {
		t.Errorf("Example 2 chase must terminate (weakly acyclic); steps=%d rounds=%d",
			res.Steps, res.Rounds)
	}
	if !res.Instance.ContainsAtom(at("s", c("a"), c("a"), c("a"))) {
		t.Error("chase must derive s(a,a,a)")
	}
	// s(a,a,a) enables r(a, _), which r(a,b) already satisfies: the
	// restricted chase invents no r fact.
	rel := res.Instance.Relation("r")
	if rel == nil || rel.Len() != 1 || res.NullsCreated != 0 {
		t.Errorf("r(a,b) satisfies the second rule's head; have r = %v, %d nulls", rel.Tuples(), res.NullsCreated)
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

// naiveBudget bounds the reference chase; comparisons are skipped when the
// oracle needs more (the engine run it would be compared to is tiny).
const naiveBudget = 5000

// oracleFacts returns the null-free facts of the textbook chase of data under
// rules, newline-joined like constFacts, or ok=false past naiveBudget.
func oracleFacts(rules *dependency.Set, data []logic.Atom) (string, bool) {
	chased, ok := naive.Chase(rules, data, false, naiveBudget)
	return strings.Join(naive.GroundFacts(chased), "\n"), ok
}

// TestGoldenChaseCounters pins Steps/Rounds/NullsCreated of the chase driver
// to the values the pre-unification classic driver (commit 6f0abc1) produced
// on the fixed-seed datagen families (Rules 6, 25 tuples, domain 8, MaxRounds
// 30, MaxSteps 20000) and on University(4 departments, seed 1, default
// budgets): what still checks "counters identical to the old
// classic driver" now that it is gone. Truncated rows are pinned too:
// truncation is deterministic. Each row also pins a digest of the chased
// instance (instanceDigest), so a change to the engine's write path that
// moves a tuple or renames a null fails here, not only across runs of one
// build (TestSequentialChaseDeterministic).
func TestGoldenChaseCounters(t *testing.T) {
	type row struct {
		family               string
		seed                 int64
		terminated           bool
		steps, rounds, nulls int
		digest               string // instanceDigest of the chased instance
	}
	golden := []row{
		{"linear", 1, false, 20000, 24, 24568, "73843dcc9d4aba83"},
		{"linear", 2, false, 1690, 30, 1176, "ffccac67045edbf6"},
		{"linear", 3, true, 6, 3, 1, "67c6299b21e12174"},
		{"multilinear", 1, true, 14, 2, 14, "df30b2c29ab0418f"},
		{"multilinear", 2, true, 7, 2, 0, "79d19061b19ce858"},
		{"multilinear", 3, false, 190, 30, 300, "9fd9b3382d34291d"},
		{"sticky", 1, true, 7, 2, 14, "b845301daf75ad9a"},
		{"sticky", 2, true, 8, 2, 10, "7c85f3f5438d8cdb"},
		{"sticky", 3, true, 2, 2, 3, "0b3446a3f723b3b2"},
		{"university", 1, true, 244, 3, 4, "6f0e509c5c999a88"},
	}
	families := map[string]datagen.Family{
		"linear": datagen.FamilyLinear, "multilinear": datagen.FamilyMultilinear,
		"sticky": datagen.FamilySticky,
	}
	for _, g := range golden {
		opts := Options{}
		rules, data := datagen.University(), datagen.UniversityData(4, g.seed)
		if fam, ok := families[g.family]; ok {
			opts.MaxRounds, opts.MaxSteps = 30, 20000
			rules = datagen.Rules(datagen.Config{Family: fam, Rules: 6, Seed: g.seed})
			data = datagen.Instance(rules, 25, 8, g.seed)
		}
		res := Run(rules, data, opts)
		if res.Terminated != g.terminated || res.Steps != g.steps || res.Rounds != g.rounds || res.NullsCreated != g.nulls {
			t.Errorf("%s/seed=%d: terminated=%v steps=%d rounds=%d nulls=%d, golden %v %d %d %d",
				g.family, g.seed, res.Terminated, res.Steps, res.Rounds, res.NullsCreated,
				g.terminated, g.steps, g.rounds, g.nulls)
		}
		if got := instanceDigest(res.Instance); got != g.digest {
			t.Errorf("%s/seed=%d: instance digest %s, golden %s", g.family, g.seed, got, g.digest)
		}
	}
}

// instanceDigest hashes every fact of ins, predicate by predicate in sorted
// order and each relation's tuples in insertion order, null names included:
// two chases share a digest only when they land the same facts in the same
// order and name their nulls the same.
func instanceDigest(ins *storage.Instance) string {
	h := sha256.New()
	for _, pred := range ins.Predicates() {
		fmt.Fprintf(h, "%s\n", pred)
		for _, tu := range ins.Relation(pred).Tuples() {
			fmt.Fprintf(h, "%s\n", tu.Key())
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestMutationMatchesOracle is the ontology-evolution property over the one
// driver: a random interleaving of ExtendRulesCtx, DeleteRuleCtx, Extend and
// Delete must leave the null-free fact set of the textbook chase of the final
// rule set over the surviving base facts.
func TestMutationMatchesOracle(t *testing.T) {
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain}
	for _, fam := range families {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%v/seed=%d", fam, seed)
			t.Run(name, func(t *testing.T) {
				full := datagen.Rules(datagen.Config{Family: fam, Rules: 8, Seed: seed})
				data := datagen.Instance(full, 20, 8, seed)
				opts := Options{MaxRounds: 60, MaxSteps: 40000}

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
						if res := st.ExtendRulesCtx(t.Context(), next, store, cur.Len()); !res.Terminated {
							t.Skip("rule-extension increment truncated")
						}
						cur = next
					case op == 1 && cur.Len() > 1: // drop a rule
						ri := rng.Intn(cur.Len())
						next, err := cur.WithoutRule(ri)
						if err != nil {
							t.Fatal(err)
						}
						dres, err := st.DeleteRuleCtx(t.Context(), next, store, ri, baseIns)
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

				want, ok := oracleFacts(cur, baseIns.Atoms())
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

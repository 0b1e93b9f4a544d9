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
	"repro/internal/storage"
)

// naiveBudget bounds the reference chase; comparisons are skipped when the
// oracle needs more (the engine run it would be compared to is tiny).
const naiveBudget = 5000

// oracleFacts returns the null-free facts of the textbook chase of data under
// rules, newline-joined like constFacts, or ok=false past naiveBudget.
func oracleFacts(rules *dependency.Set, data []logic.Atom, variant Variant) (string, bool) {
	chased, ok := naive.Chase(rules, data, variant == Oblivious, naiveBudget)
	return strings.Join(naive.GroundFacts(chased), "\n"), ok
}

// TestLocalRuleClassifier pins the locality classifier: a rule is local only
// when one term rides the partitioning column through every body and head
// atom.
func TestLocalRuleClassifier(t *testing.T) {
	cases := []struct {
		rule  string
		col   int
		local bool
	}{
		{`a(X) -> b(X) .`, 0, true},
		{`a(X,Y) -> b(X,Z) .`, 0, true},          // pivot X at col 0 everywhere
		{`a(X,Y) -> b(Y,X) .`, 0, false},         // head swaps the pivot away
		{`a(X,Y), b(X,Z) -> c(X,W) .`, 0, true},  // shared pivot across the join
		{`a(X,Y), b(Y,Z) -> c(X,Z) .`, 0, false}, // body atoms disagree at col 0
		{`a(X,Y), b(X,Y) -> c(Z,Y) .`, 1, true},  // pivot Y at col 1 everywhere
		{`a(X) -> b(X,Y) .`, 1, false},           // a body atom too narrow to route
		{`a(c0,X) -> b(c0,X) .`, 0, true},        // constant pivot: one fixed partition
		{`a(c0,X) -> b(c1,X) .`, 0, false},       // constants disagree
	}
	for _, tc := range cases {
		rule := parser.MustParseRules(tc.rule).Rules[0]
		if got := LocalRule(rule, tc.col); got != tc.local {
			t.Errorf("LocalRule(%q, col=%d) = %v, want %v", tc.rule, tc.col, got, tc.local)
		}
	}
}

// TestPartitionedChaseMatchesOracle chases seeded random ontologies with P in
// {1, 2, 4}, sequential and parallel, both variants. The null-free facts must
// equal the textbook chase's for every P; and since the one driver fires the
// same triggers round by round whatever the layout, every counter at P > 1
// (and under parallelism) must equal the sequential P = 1 run's.
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
					for _, p := range []int{1, 2, 4} {
						for _, par := range []int{1, 4} {
							popts := opts
							popts.Partitions = p
							popts.Parallelism = par
							res := Run(rules, data, popts)
							tag := fmt.Sprintf("%v P=%d par=%d", variant, p, par)
							if !res.Terminated {
								t.Fatalf("%s: truncated where P=1 terminated", tag)
							}
							if got := constFacts(res.Instance); got != want {
								t.Errorf("%s: null-free facts differ from the oracle:\noracle:\n%s\nengine:\n%s", tag, want, got)
							}
							if base.Steps != res.Steps || base.Rounds != res.Rounds || base.NullsCreated != res.NullsCreated {
								t.Errorf("%s: counters differ from P=1: steps %d/%d rounds %d/%d nulls %d/%d",
									tag, res.Steps, base.Steps, res.Rounds, base.Rounds, res.NullsCreated, base.NullsCreated)
							}
							if p == 1 && (res.Partition.ShippedTriggers != 0 || res.Partition.PrunedProbes != 0 || res.Partition.LocalFirings != uint64(res.Steps)) {
								t.Errorf("%s: one partition must fire everything locally and prune nothing: %+v", tag, res.Partition)
							}
							if fired := res.Partition.LocalFirings + res.Partition.ShippedTriggers; res.Steps > 0 && fired == 0 {
								t.Errorf("%s: partition counters all zero despite %d steps", tag, res.Steps)
							}
						}
					}
				}
			})
		}
	}
}

// TestGoldenChaseCounters pins Steps/Rounds/NullsCreated of the P = 1 driver
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
// over the one driver at P in {1, 2, 4}: a random interleaving of ExtendRules,
// DeleteRule, Extend and Delete must leave the null-free fact set of the
// textbook chase of the final rule set over the surviving base facts.
func TestPartitionedMutationMatchesOracle(t *testing.T) {
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain}
	for _, fam := range families {
		for seed := int64(1); seed <= 3; seed++ {
			for _, variant := range []Variant{Restricted, Oblivious} {
				for _, par := range []int{1, 4} {
					for _, parts := range []int{1, 2, 4} {
						name := fmt.Sprintf("%v/seed=%d/%v/par=%d/P=%d", fam, seed, variant, par, parts)
						t.Run(name, func(t *testing.T) {
							full := datagen.Rules(datagen.Config{Family: fam, Rules: 8, Seed: seed})
							data := datagen.Instance(full, 20, 8, seed)
							opts := Options{Variant: variant, MaxRounds: 60, MaxSteps: 40000, Parallelism: par, TrackProvenance: true, Partitions: parts}

							cur := dependency.MustNewSet(full.Rules[:5]...)
							reserve := full.Rules[5:]

							baseAtoms := data.Atoms()
							rng := rand.New(rand.NewSource(seed * 70001))
							rng.Shuffle(len(baseAtoms), func(i, j int) { baseAtoms[i], baseAtoms[j] = baseAtoms[j], baseAtoms[i] })
							cut := 3 * len(baseAtoms) / 4
							baseIns := storage.MustFromAtoms(baseAtoms[:cut])
							factReserve := baseAtoms[cut:]

							st := NewState(opts)
							store, err := storage.NewStore(baseIns, opts.Partitions, opts.PartitionCol)
							if err != nil {
								t.Fatal(err)
							}
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
							if got := constFacts(storage.Flatten(store)); got != want {
								t.Errorf("null-free facts differ after mutations:\noracle:\n%s\nincremental:\n%s", want, got)
							}
						})
					}
				}
			}
		}
	}
}

// TestChainOntologyFullyLocal proves the locality classifier keeps an entire
// datagen family coordination-free: every ChainOntology rule rides variable X
// at column 0 through body and head, so a chase over 4 partitions must ship
// zero triggers through the exchange while firing everything locally.
func TestChainOntologyFullyLocal(t *testing.T) {
	rules := datagen.ChainOntology(6)
	for _, rule := range rules.Rules {
		if !LocalRule(rule, 0) {
			t.Fatalf("chain rule %v must classify as partition-local", rule)
		}
	}
	data := storage.NewInstance()
	for i := 0; i < 40; i++ {
		if err := data.InsertAtom(logic.NewAtom("c1", logic.NewConst(fmt.Sprintf("e%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	res := Run(rules, data, Options{Partitions: 4, Parallelism: 2})
	if !res.Terminated {
		t.Fatal("chain chase must terminate")
	}
	if res.Partition.ShippedTriggers != 0 {
		t.Errorf("chain family shipped %d triggers; want 0 (fully partition-local)", res.Partition.ShippedTriggers)
	}
	if res.Partition.LocalFirings == 0 {
		t.Error("chain family fired no local triggers")
	}
	want, ok := oracleFacts(rules, data.Atoms(), Restricted)
	if !ok {
		t.Fatal("oracle over budget on the chain family")
	}
	if got := constFacts(res.Instance); got != want {
		t.Errorf("chain facts differ from the oracle:\noracle:\n%s\nengine:\n%s", want, got)
	}
}

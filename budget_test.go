package repro

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/naive"
)

// budgetProgram chases in 3 steps and 2 rounds: p0 gives p for a and d, k
// gives the blocker q(a, b), and the p triggers are blocked — q(a, b) and the
// base fact q(d, e) satisfy their heads. The r-chain of b and e is base data,
// so nothing fires on it. A q fact over a fresh null has no such chain: every
// mutation below unblocks or adds work that runs the chain r, r1, r2, r3 over
// a new value — 4 or more steps over 4 or more rounds in one increment.
const budgetProgram = `
p0(X) -> p(X) .
p(X) -> q(X, Y) .
k(X) -> q(X, b) .
q(X, Y) -> r(Y) .
r(X) -> r1(X) .
r1(X) -> r2(X) .
r2(X) -> r3(X) .
p0(a) . k(a) . p0(d) . q(d, e) .
r(b) . r1(b) . r2(b) . r3(b) .
r(e) . r1(e) . r2(e) . r3(e) .
junk(z) .
`

// budgetQueries need the whole chain: a q witness whose second value reached
// r3, and the r3 values themselves.
var budgetQueries = []string{`ans(X) :- q(X, Y), r3(Y) .`, `ans(X) :- r3(X) .`}

// TestMutationIncrementAtBudget exhausts the chase budget inside the apply
// step of every mutator. The materialization is built with a budget just
// large enough for the initial chase (its steps in one row, its rounds in
// the other), and every mutation's increment needs more. The mutation must
// still land whole in Data and Rules; an answer at the same budget is a
// budget error or the oracle's answer, never a wrong one; a larger budget
// gives the oracle's answer; and a reader that opened its stream before the
// mutation reads the pre-mutation answers to the end.
func TestMutationIncrementAtBudget(t *testing.T) {
	const initSteps, initRounds = 3, 2
	budgets := []struct {
		name  string
		tight Options
	}{
		{"MaxSteps", Options{Mode: ModeChase, MaxSteps: initSteps}},
		{"MaxRounds", Options{Mode: ModeChase, MaxRounds: initRounds}},
	}
	has := func(o *Ontology, pred string, args ...string) bool {
		terms := make([]logic.Term, len(args))
		for i, a := range args {
			terms[i] = logic.NewConst(a)
		}
		return o.Data().ContainsAtom(logic.NewAtom(pred, terms...))
	}
	mutations := []struct {
		name  string
		apply func(context.Context, *Ontology) error
		// landed reports whether Data and Rules hold the whole mutation.
		landed func(*Ontology) bool
	}{
		{"AddFactCtx",
			func(ctx context.Context, o *Ontology) error { return o.AddFactCtx(ctx, `p(c) .`) },
			func(o *Ontology) bool { return has(o, "p", "c") }},
		{"DeleteFactCtx",
			func(ctx context.Context, o *Ontology) error {
				_, err := o.DeleteFactCtx(ctx, `q(d, e) .`)
				return err
			},
			func(o *Ontology) bool { return !has(o, "q", "d", "e") && has(o, "p0", "d") }},
		// Five triggers refire in the direct re-derivation sweep alone —
		// p(d) for q(d, _), r(b), r(e) for r1 and r2(b), r2(e) for r3 —
		// more than the initial chase's 3 steps.
		{"DeleteFactCtxDirect",
			func(ctx context.Context, o *Ontology) error {
				_, err := o.DeleteFactCtx(ctx, `q(d, e) . r1(b) . r1(e) . r3(b) . r3(e) .`)
				return err
			},
			func(o *Ontology) bool {
				return !has(o, "q", "d", "e") && !has(o, "r1", "b") && !has(o, "r1", "e") &&
					!has(o, "r3", "b") && !has(o, "r3", "e") && has(o, "r2", "b")
			}},
		{"LoadCSVCtx",
			func(ctx context.Context, o *Ontology) error {
				_, err := o.LoadCSVCtx(ctx, "p", strings.NewReader("c\nf\n"))
				return err
			},
			func(o *Ontology) bool { return has(o, "p", "c") && has(o, "p", "f") }},
		{"AddRuleCtx",
			func(ctx context.Context, o *Ontology) error { return o.AddRuleCtx(ctx, `p(X) -> r(X) .`) },
			func(o *Ontology) bool {
				rs := o.Rules().Rules
				last := rs[len(rs)-1]
				return len(rs) == 8 && last.Body[0].Pred == "p" && last.Head[0].Pred == "r"
			}},
		{"RemoveRuleCtx",
			func(ctx context.Context, o *Ontology) error { return o.RemoveRuleCtx(ctx, "R3") },
			func(o *Ontology) bool { return o.Rules().Len() == 6 && o.Rules().IndexOfLabel("R3") < 0 }},
	}
	answers := func(t *testing.T, o *Ontology, q string, opts Options) ([]string, error) {
		t.Helper()
		ans, err := o.AnswerCtx(bg, q, opts)
		if err != nil {
			return nil, err
		}
		return renderedAnswers(ans), nil
	}

	for _, b := range budgets {
		for _, m := range mutations {
			t.Run(b.name+"/"+m.name, func(t *testing.T) {
				ont := MustParse(budgetProgram)
				// junk(z) goes before the build; the build below is then
				// repaired by DRed like any other.
				if n, err := ont.DeleteFact(`junk(z) .`); err != nil || n != 1 {
					t.Fatalf("priming delete: n=%d err=%v", n, err)
				}
				pre := make([][]string, len(budgetQueries))
				for i, q := range budgetQueries {
					var err error
					if pre[i], err = answers(t, ont, q, b.tight); err != nil {
						t.Fatalf("initial build at the tight budget: %v", err)
					}
				}
				if ms := ont.MaterializationStats(); !ms.Terminated || ms.Steps != initSteps || ms.Rounds != initRounds {
					t.Fatalf("initial chase: terminated=%v steps=%d rounds=%d, want true %d %d",
						ms.Terminated, ms.Steps, ms.Rounds, initSteps, initRounds)
				}

				// The reader opens its stream over the pre-mutation snapshot;
				// the mutation runs after the first row.
				held := Options{Mode: ModeChase, MaxSteps: b.tight.MaxSteps, MaxRounds: b.tight.MaxRounds, NoCache: true}
				var rows []string
				mutated := false
				err := ont.AnswerEach(bg, budgetQueries[0], held, func(a Answer) bool {
					if !mutated {
						mutated = true
						if err := m.apply(bg, ont); err != nil {
							t.Errorf("mutation: %v", err)
						}
					}
					rows = append(rows, naive.Render(a))
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				slices.Sort(rows)
				if !mutated || !slices.Equal(rows, pre[0]) {
					t.Errorf("held reader read %v, want the pre-mutation %v", rows, pre[0])
				}
				// The truncated increment is published, not dropped: the
				// answers below meet it.
				if ms := ont.MaterializationStats(); !ms.Cached || ms.Terminated {
					t.Fatalf("after the mutation: cached=%v terminated=%v (last steps=%d rounds=%d), want a published truncated increment",
						ms.Cached, ms.Terminated, ms.LastSteps, ms.LastRounds)
				}
				if !m.landed(ont) {
					t.Errorf("Data/Rules do not hold the whole mutation:\n%v\n%v", ont.Rules(), ont.Data())
				}

				ref, ok := oracleOf(ont.Rules(), ont.Data().Atoms(), 5000)
				if !ok {
					t.Fatal("oracle chase over budget")
				}
				for _, q := range budgetQueries {
					want := ref.answers(t, q)
					got, err := answers(t, ont, q, b.tight)
					if err != nil && !strings.Contains(err.Error(), "did not terminate within budget") {
						t.Errorf("%s at the tight budget: %v, want a budget error or the oracle's answers", q, err)
					}
					if err == nil && !slices.Equal(got, want) {
						t.Errorf("%s at the tight budget = %v, oracle %v", q, got, want)
					}
					got, err = answers(t, ont, q, Options{Mode: ModeChase})
					if err != nil || !slices.Equal(got, want) {
						t.Errorf("%s at the default budget = %v (err %v), oracle %v", q, got, err, want)
					}
				}
			})
		}
	}
}

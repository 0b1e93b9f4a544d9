package repro

import (
	"testing"

	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/naive"
	"repro/internal/query"
)

// oracle is the textbook chase (internal/naive) of one ontology state: the
// independent reference the answering paths are compared against.
type oracle struct{ chased []logic.Atom }

// oracleOf chases facts under rules with the naive reference; ok=false when
// that takes more than budget rule applications. Callers size budget from an
// engine run that terminated, so a miss means the comparison is skipped,
// never that the engine is excused.
func oracleOf(rules *dependency.Set, facts []logic.Atom, budget int) (*oracle, bool) {
	chased, ok := naive.Chase(rules, facts, false, budget)
	return &oracle{chased: chased}, ok
}

// answers returns the certain answers of q by nested-loop evaluation over
// the reference chase, rendered and sorted.
func (r *oracle) answers(t *testing.T, q string) []string {
	t.Helper()
	cq, err := ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return naive.Answers(query.MustNewUCQ(cq), r.chased)
}

// renderedAnswers puts an engine answer set in the oracle's form.
func renderedAnswers(ans *Answers) []string { return naive.RenderAll(ans.Tuples()) }

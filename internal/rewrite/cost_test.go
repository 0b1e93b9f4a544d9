package rewrite

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dependency"
	"repro/internal/logic"
)

// TestRewriteCostIgnoresUnrelatedRules: rules whose head predicates occur in
// no CQ of the rewriting never meet a pool entry, so adding 200 of them must
// leave the allocations of a rewriting unchanged up to a small constant. A
// rewriter that renames every rule for every pool entry allocates
// 200 renamings per entry more.
func TestRewriteCostIgnoresUnrelatedRules(t *testing.T) {
	s := datagen.University()
	rules := append([]*dependency.TGD{}, s.Rules...)
	for i := 0; i < 200; i++ {
		x := logic.NewVar("X")
		rules = append(rules, dependency.MustNew(fmt.Sprintf("U%d", i),
			[]logic.Atom{logic.NewAtom(fmt.Sprintf("u%d", i), x)},
			[]logic.Atom{logic.NewAtom(fmt.Sprintf("w%d", i), x)}))
	}
	bigger := dependency.MustNewSet(rules...)
	q := mustQ(`q(X) :- person(X) .`)
	allocs := func(set *dependency.Set) float64 {
		return testing.AllocsPerRun(3, func() { Rewrite(q, set, DefaultOptions()) })
	}
	base, with := allocs(s), allocs(bigger)
	t.Logf("S %.0f, S plus 200 %.0f", base, with)
	if with > base+2 {
		t.Errorf("rewriting allocates %.0f over S and %.0f over S plus 200 unrelated rules", base, with)
	}
}

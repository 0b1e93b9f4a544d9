package pnode

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dependency"
	"repro/internal/logic"
)

// unrelatedRules returns n rules uN(X) -> wN(X) over predicates no other
// test set uses.
func unrelatedRules(n int) []*dependency.TGD {
	out := make([]*dependency.TGD, n)
	for i := range out {
		x := logic.NewVar("X")
		out[i] = dependency.MustNew(fmt.Sprintf("U%d", i),
			[]logic.Atom{logic.NewAtom(fmt.Sprintf("u%d", i), x)},
			[]logic.Atom{logic.NewAtom(fmt.Sprintf("w%d", i), x)})
	}
	return out
}

// TestBuildCostIsAdditive: the P-node graph of two rule sets over disjoint
// predicates is the disjoint union of their graphs, so building it must
// allocate what building each part allocates, up to a small constant for
// the growth of the graph's maps and queues. A Build that renames every rule
// at every node allocates nodes(S)·|E| + nodes(E)·|S| more renamings.
func TestBuildCostIsAdditive(t *testing.T) {
	s := datagen.University()
	e := dependency.MustNewSet(unrelatedRules(200)...)
	union := dependency.MustNewSet(append(append([]*dependency.TGD{}, s.Rules...), e.Rules...)...)
	allocs := func(set *dependency.Set) float64 {
		return testing.AllocsPerRun(3, func() { Build(set) })
	}
	as, ae, au := allocs(s), allocs(e), allocs(union)
	t.Logf("S %.0f, E %.0f, S ∪ E %.0f", as, ae, au)
	if excess := au - as - ae; excess > 64 {
		t.Errorf("Build(S ∪ E) allocates %.0f, Build(S) %.0f and Build(E) %.0f: %.0f more than the parts",
			au, as, ae, excess)
	}
}

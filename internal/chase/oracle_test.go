package chase

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/storage"
)

// parLegs are the values of the par subtest axis. Both legs run the one
// sequential chase: par sets Options.Parallelism, which is deprecated and
// ignored, so a par=4 leg checks that the field changes nothing. The axis
// goes when the field does (ROADMAP item 1).
var parLegs = []int{1, 4}

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

// TestChaseMatchesOracle chases seeded random ontologies and compares each
// terminated run with the textbook chase: the null-free facts must be the
// oracle's.
func TestChaseMatchesOracle(t *testing.T) {
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
				res := Run(rules, data, Options{MaxRounds: 30, MaxSteps: 20000})
				if !res.Terminated {
					return // a truncated chase has no oracle to equal
				}
				want, ok := oracleFacts(rules, data.Atoms())
				if !ok {
					t.Fatalf("oracle over budget on a chase the engine finished in %d steps", res.Steps)
				}
				if got := constFacts(res.Instance); got != want {
					t.Errorf("null-free facts differ from the oracle:\noracle:\n%s\nengine:\n%s", want, got)
				}
			})
		}
	}
}

// TestParallelChaseSharedNulls checks that multi-head existentials share one
// null per trigger: the null a firing invents for Y lands in both head atoms.
func TestParallelChaseSharedNulls(t *testing.T) {
	rules := parser.MustParseRules(`emp(X) -> worksFor(X,Y), dept(Y) .`)
	d := storage.MustFromAtoms([]logic.Atom{
		logic.NewAtom("emp", logic.NewConst("e1")),
		logic.NewAtom("emp", logic.NewConst("e2")),
		logic.NewAtom("emp", logic.NewConst("e3")),
	})
	res := Run(rules, d, Options{})
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

package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/storage"
)

// TestEvalAgreesWithHomomorphismSearch cross-checks the two independent
// implementations of CQ semantics in the codebase: the index-backed join
// evaluator of this package and the generic homomorphism search of the
// logic package. For random queries and instances the answer sets must be
// identical.
func TestEvalAgreesWithHomomorphismSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	consts := make([]logic.Term, 5)
	for i := range consts {
		consts[i] = logic.NewConst(fmt.Sprintf("d%d", i))
	}
	vars := []logic.Term{
		logic.NewVar("X"), logic.NewVar("Y"), logic.NewVar("Z"),
	}
	preds := []struct {
		name  string
		arity int
	}{{"r", 2}, {"s", 1}, {"t", 3}}

	for trial := 0; trial < 60; trial++ {
		// Random instance.
		ins := storage.NewInstance()
		var facts []logic.Atom
		for _, p := range preds {
			for k := 0; k < 4+rng.Intn(5); k++ {
				args := make([]logic.Term, p.arity)
				for j := range args {
					args[j] = consts[rng.Intn(len(consts))]
				}
				a := logic.NewAtom(p.name, args...)
				if err := ins.InsertAtom(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		facts = ins.Atoms()

		// Random query.
		n := 1 + rng.Intn(3)
		body := make([]logic.Atom, n)
		for i := range body {
			p := preds[rng.Intn(len(preds))]
			args := make([]logic.Term, p.arity)
			for j := range args {
				if rng.Intn(3) == 0 {
					args[j] = consts[rng.Intn(len(consts))]
				} else {
					args[j] = vars[rng.Intn(len(vars))]
				}
			}
			body[i] = logic.NewAtom(p.name, args...)
		}
		bodyVars := logic.VarsOf(body)
		var head []logic.Term
		for k := 0; k < len(bodyVars) && k < 2; k++ {
			head = append(head, bodyVars[k])
		}
		q, err := query.New(logic.NewAtom("q", head...), body)
		if err != nil {
			continue
		}

		// Path 1: the join evaluator.
		joinAns := CQ(q, ins, Options{})

		// Path 2: homomorphism enumeration.
		homAns := NewAnswers(q.Arity())
		for _, h := range logic.AllHomomorphisms(body, facts, logic.HomOptions{}) {
			tuple := make(storage.Tuple, len(q.Head.Args))
			for i, t := range q.Head.Args {
				tuple[i] = h.Apply(t)
			}
			homAns.Add(tuple)
		}

		if !joinAns.Equal(homAns) {
			t.Fatalf("trial %d: evaluators disagree on %v\njoin: %v\nhom: %v\ninstance:\n%v",
				trial, q, joinAns, homAns, ins)
		}
	}
}

// TestEvalMonotone: adding facts never removes answers (CQs are monotone).
func TestEvalMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := query.MustNew(
		logic.NewAtom("q", logic.NewVar("X")),
		[]logic.Atom{
			logic.NewAtom("r", logic.NewVar("X"), logic.NewVar("Y")),
			logic.NewAtom("s", logic.NewVar("Y")),
		})
	ins := storage.NewInstance()
	prev := CQ(q, ins, Options{})
	for step := 0; step < 40; step++ {
		c1 := logic.NewConst(fmt.Sprintf("c%d", rng.Intn(6)))
		c2 := logic.NewConst(fmt.Sprintf("c%d", rng.Intn(6)))
		if rng.Intn(2) == 0 {
			ins.InsertAtom(logic.NewAtom("r", c1, c2))
		} else {
			ins.InsertAtom(logic.NewAtom("s", c1))
		}
		cur := CQ(q, ins, Options{})
		if diff := prev.Minus(cur); len(diff) != 0 {
			t.Fatalf("step %d: answers vanished after insertion: %v", step, diff)
		}
		prev = cur
	}
}

// TestRandomQueriesAgreeWithOracle: for seeded random instances and queries,
// the compiled plans must produce exactly the naive nested-loop oracle's
// answers: atom order and access paths are performance choices, never
// semantics.
func TestRandomQueriesAgreeWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	consts := make([]logic.Term, 6)
	for i := range consts {
		consts[i] = logic.NewConst(fmt.Sprintf("d%d", i))
	}
	vars := []logic.Term{
		logic.NewVar("X"), logic.NewVar("Y"), logic.NewVar("Z"), logic.NewVar("W"),
	}
	preds := []struct {
		name  string
		arity int
	}{{"r", 2}, {"s", 1}, {"t", 3}, {"u", 2}}

	for trial := 0; trial < 80; trial++ {
		ins := storage.NewInstance()
		for _, p := range preds {
			for k := 0; k < 3+rng.Intn(12); k++ {
				args := make([]logic.Term, p.arity)
				for j := range args {
					args[j] = consts[rng.Intn(len(consts))]
				}
				if err := ins.InsertAtom(logic.NewAtom(p.name, args...)); err != nil {
					t.Fatal(err)
				}
			}
		}
		n := 1 + rng.Intn(4)
		body := make([]logic.Atom, n)
		for i := range body {
			p := preds[rng.Intn(len(preds))]
			args := make([]logic.Term, p.arity)
			for j := range args {
				if rng.Intn(4) == 0 {
					args[j] = consts[rng.Intn(len(consts))]
				} else {
					args[j] = vars[rng.Intn(len(vars))]
				}
			}
			body[i] = logic.NewAtom(p.name, args...)
		}
		bodyVars := logic.VarsOf(body)
		var head []logic.Term
		for k := 0; k < len(bodyVars) && k < 2; k++ {
			head = append(head, bodyVars[k])
		}
		q, err := query.New(logic.NewAtom("q", head...), body)
		if err != nil {
			continue
		}
		want := naive.Answers(query.MustNewUCQ(q), ins.Atoms())
		if got := naive.RenderAll(CQ(q, ins, Options{}).Tuples()); !slices.Equal(got, want) {
			t.Fatalf("trial %d: plan disagrees with the oracle on %v\ngot: %v\noracle: %v\ninstance:\n%v",
				trial, q, got, want, ins)
		}
	}
}

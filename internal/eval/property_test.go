package eval

import (
	"context"
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

// randomUnionWorkload builds a seeded random instance and a union of one to
// three random CQs of arity 3 with repeated variables, head constants,
// repeated atoms and projected-away variables. Half of the heads keep every
// body variable that fits, so both heads that tell every match apart and
// heads that project several matches onto one row are common.
func randomUnionWorkload(rng *rand.Rand) (*storage.Instance, []*query.CQ) {
	consts := make([]logic.Term, 5)
	for i := range consts {
		consts[i] = logic.NewConst(fmt.Sprintf("d%d", i))
	}
	vars := []logic.Term{logic.NewVar("X"), logic.NewVar("Y"), logic.NewVar("Z"), logic.NewVar("W")}
	preds := []struct {
		name  string
		arity int
	}{{"r", 2}, {"s", 1}, {"t", 3}}

	ins := storage.NewInstance()
	for _, p := range preds {
		for k := 0; k < 5+rng.Intn(20); k++ {
			args := make([]logic.Term, p.arity)
			for j := range args {
				args[j] = consts[rng.Intn(len(consts))]
			}
			if err := ins.InsertAtom(logic.NewAtom(p.name, args...)); err != nil {
				panic(err)
			}
		}
	}
	var cqs []*query.CQ
	for len(cqs) < 1+rng.Intn(3) {
		var body []logic.Atom
		for range 1 + rng.Intn(3) {
			if len(body) > 0 && rng.Intn(4) == 0 {
				body = append(body, body[rng.Intn(len(body))]) // a repeated atom
				continue
			}
			p := preds[rng.Intn(len(preds))]
			args := make([]logic.Term, p.arity)
			for j := range args {
				if rng.Intn(5) == 0 {
					args[j] = consts[rng.Intn(len(consts))]
				} else {
					args[j] = vars[rng.Intn(len(vars))]
				}
			}
			body = append(body, logic.NewAtom(p.name, args...))
		}
		bodyVars := logic.VarsOf(body)
		keepAll := rng.Intn(2) == 0 && len(bodyVars) <= 3
		head := make([]logic.Term, 3)
		for k := range head {
			switch {
			case keepAll && k < len(bodyVars):
				head[k] = bodyVars[k]
			case len(bodyVars) > 0 && rng.Intn(4) != 0:
				head[k] = bodyVars[rng.Intn(len(bodyVars))]
			default:
				head[k] = consts[rng.Intn(len(consts))]
			}
		}
		rng.Shuffle(len(head), func(i, j int) { head[i], head[j] = head[j], head[i] })
		if q, err := query.New(logic.NewAtom("q", head...), body); err == nil {
			cqs = append(cqs, q)
		}
	}
	return ins, cqs
}

// streamRows drains a stream into its rows.
func streamRows(t *testing.T, s *Stream) []storage.Tuple {
	t.Helper()
	var out []storage.Tuple
	for {
		tp, ok, err := s.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, tp)
	}
}

// TestStreamRandomUnions: the stream's dedup — a hash probe per row, with
// a duplicate row's slab slot handed to the next match — yields exactly the
// naive oracle's answers, each once, for single- and multi-member unions,
// and a Limit stream is a prefix of the unlimited one.
func TestStreamRandomUnions(t *testing.T) {
	// Two teachers of one course in one department: the course-department
	// pair is answered twice by the join unless deduplicated.
	ins := inst(at("teacherOf", c("p1"), c("c1")), at("teacherOf", c("p2"), c("c1")),
		at("worksFor", c("p1"), c("d1")), at("worksFor", c("p2"), c("d1")))
	body := []logic.Atom{at("teacherOf", v("P"), v("C")), at("worksFor", v("P"), v("D"))}
	for _, head := range []logic.Atom{
		at("q", v("C"), v("D")),
		at("q", v("P"), v("C"), v("D")),
		at("q", v("D"), v("C"), v("P"), v("C"), c("k")),
	} {
		q := query.MustNew(head, body)
		plan := CompileCQ(q)
		want := naive.Answers(query.MustNewUCQ(q), ins.Atoms())
		rows := streamRows(t, NewStream([]*Plan{plan}, q.Arity(), ins, Options{}))
		if got := naive.RenderAll(rows); !slices.Equal(got, want) || len(rows) != len(want) {
			t.Errorf("%v: stream %v, oracle %v", q, rows, want)
		}
	}

	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 400; trial++ {
		ins, cqs := randomUnionWorkload(rng)
		plans := make([]*Plan, len(cqs))
		for i, q := range cqs {
			plans[i] = CompileCQ(q)
		}
		u := query.MustNewUCQ(cqs...)
		want := naive.Answers(u, ins.Atoms())
		full := streamRows(t, NewStream(plans, 3, ins, Options{}))
		if got := naive.RenderAll(full); !slices.Equal(got, want) || len(full) != len(want) {
			t.Fatalf("trial %d: stream disagrees with the oracle on %v\nstream: %v\noracle: %v\ninstance:\n%v",
				trial, u, full, want, ins)
		}
		k := 1 + rng.Intn(len(full)+2)
		limited := streamRows(t, NewStream(plans, 3, ins, Options{Limit: k}))
		if !slices.EqualFunc(limited, full[:min(k, len(full))], slices.Equal) {
			t.Fatalf("trial %d: limit %d gives %v, want a prefix of %v", trial, k, limited, full)
		}
	}
}

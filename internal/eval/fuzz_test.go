package eval

import (
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/storage"
)

// oracleFixture is the instance FuzzPlanAgreesWithOracle queries: a small
// graph with self-loops, a unary and a ternary relation, one fact holding a
// labelled null, the relation z present but empty, and no relation "nope".
func oracleFixture(t *testing.T) *storage.Instance {
	ins := inst(
		at("e", c("a"), c("b")), at("e", c("b"), c("c")), at("e", c("c"), c("a")),
		at("e", c("a"), c("a")), at("e", c("b"), c("b")), at("e", c("c"), logic.NewNull("n1")),
		at("p", c("a")), at("p", c("c")),
		at("t", c("a"), c("b"), c("c")), at("t", c("b"), c("b"), c("a")), at("t", c("c"), c("a"), c("a")),
		at("z", c("a")),
	)
	if !ins.Relation("z").Remove(storage.Tuple{c("a")}) {
		t.Fatal("fixture: z(a) not removed")
	}
	return ins
}

// FuzzPlanAgreesWithOracle checks the compiled plan against the naive
// evaluator. The input decodes into a CQ over oracleFixture: the first byte
// gives the body length (1 to 4) and the head's variable mask, then each
// atom takes one byte for its predicate and one per argument — a constant
// (a, b, c, or d, which the data lacks) or one of three variables, so
// repeated variables and constants within and across atoms are common.
// Predicates include the empty z and the absent nope. An unsafe query is
// skipped. eval.CQ, with nulls filtered, must equal naive.Answers.
func FuzzPlanAgreesWithOracle(f *testing.F) {
	f.Add([]byte{0x10, 0, 0, 1})                          // q(X) :- e(X, Y)
	f.Add([]byte{0x10, 0, 0, 0})                          // q(X) :- e(X, X)
	f.Add([]byte{0x11, 0, 0, 1, 0, 1, 0})                 // q(X) :- e(X, Y), e(Y, X)
	f.Add([]byte{0x51, 0, 0, 1, 2, 1, 2, 11})             // q(X, Z) :- e(X, Y), t(Y, Z, c)
	f.Add([]byte{0x11, 0, 3, 0, 1, 0})                    // q(X) :- e(a, X), p(X)
	f.Add([]byte{0x11, 0, 0, 0, 3, 0})                    // q(X) :- e(X, X), z(X)
	f.Add([]byte{0x11, 0, 0, 1, 4, 1})                    // q(X) :- e(X, Y), nope(Y)
	f.Add([]byte{0x72, 2, 0, 1, 2, 2, 2, 0, 1, 0, 0, 15}) // q(X, Y, Z) :- t(X, Y, Z), t(Z, X, Y), e(X, d)
	f.Add([]byte{0x13, 0, 0, 1, 0, 1, 2, 0, 2, 0, 1, 0})  // q(X) :- e(X, Y), e(Y, Z), e(Z, X), p(X)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ins := oracleFixture(t)
		preds := []struct {
			name  string
			arity int
		}{{"e", 2}, {"p", 1}, {"t", 3}, {"z", 1}, {"nope", 1}}
		vars := []logic.Term{v("X"), v("Y"), v("Z")}
		consts := []logic.Term{c("a"), c("b"), c("c"), c("d")}
		natoms, mask := int(data[0]&3)+1, data[0]>>4
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		body := make([]logic.Atom, natoms)
		for i := range body {
			p := preds[int(next())%len(preds)]
			args := make([]logic.Term, p.arity)
			for j := range args {
				if b := next(); b%4 == 3 {
					args[j] = consts[int(b/4)%len(consts)]
				} else {
					args[j] = vars[b%4]
				}
			}
			body[i] = logic.Atom{Pred: p.name, Args: args}
		}
		var head []logic.Term
		for i, x := range vars {
			if mask&(1<<i) != 0 && slices.Contains(logic.VarsOf(body), x) {
				head = append(head, x)
			}
		}
		q, err := query.New(at("q", head...), body)
		if err != nil {
			return
		}
		want := naive.Answers(query.MustNewUCQ(q), ins.Atoms())
		got := naive.RenderAll(CQ(q, ins, Options{FilterNulls: true}).Tuples())
		if !slices.Equal(got, want) {
			t.Fatalf("%v\nplan %v\ncompiled: %v\noracle:   %v", q, CompileCQ(q).Access(), got, want)
		}
	})
}

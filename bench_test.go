// Benchmarks regenerating every figure, example and complexity claim of the
// paper (one section per experiment ID below). The paper reports no absolute
// numbers — these benches reproduce the *shapes*: graph constructions are
// cheap and polynomial (E1, E2, C1), the P-node graph is costlier but
// feasible (C2), Example 2's rewriting grows without bound (E2), Example 3
// and all SWR sets rewrite to a fixpoint (E3, T1), and rewriting-based
// answering beats chase-based answering as data grows (W1, D1).
package repro

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/chase"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/pnode"
	"repro/internal/posgraph"
	"repro/internal/query"
	"repro/internal/rewrite"
)

// --- E1 / Figure 1: position graph of Example 1 -------------------------

// BenchmarkFigure1PositionGraph builds AG(P) for the paper's Example 1 and
// runs the SWR test (expected: SWR, no dangerous cycle).
func BenchmarkFigure1PositionGraph(b *testing.B) {
	set := parser.MustParseRules(`
s(Y1,Y2,Y3), t(Y4) -> r(Y1,Y3) .
v(Y1,Y2), q(Y2) -> s(Y1,Y3,Y2) .
r(Y1,Y2) -> v(Y1,Y2) .
`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := posgraph.Check(set)
		if !res.SWR {
			b.Fatal("Example 1 must be SWR")
		}
	}
}

// --- E2 / Figure 2: the unbounded chain ---------------------------------

// BenchmarkFigure2UnboundedChain rewrites the paper's q() :- r("a",X) over
// Example 2 at growing budgets; the work grows with the budget because the
// rewriting never completes (the series reproduces Figure 2's failure mode).
func BenchmarkFigure2UnboundedChain(b *testing.B) {
	set := parser.MustParseRules(`
t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .
s(Y1,Y1,Y2) -> r(Y2,Y3) .
`)
	pq := parser.MustParseQuery(`q() :- r("a", X) .`)
	q := query.MustNew(pq.Head, pq.Body)
	for _, budget := range []int{10, 20, 40} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := rewrite.Rewrite(q, set, rewrite.Options{MaxCQs: budget})
				if res.Complete {
					b.Fatal("Example 2 must not complete")
				}
			}
		})
	}
}

// --- E2 / Figure 3: P-node graph detects the danger ---------------------

// BenchmarkFigure3PNodeGraph builds the P-node graph for Example 2 and runs
// the WR test (expected: not WR, dangerous d+m+s cycle found).
func BenchmarkFigure3PNodeGraph(b *testing.B) {
	set := parser.MustParseRules(`
t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .
s(Y1,Y1,Y2) -> r(Y2,Y3) .
`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := pnode.Check(set)
		if res.WR {
			b.Fatal("Example 2 must not be WR")
		}
	}
}

// --- E3: the set only WR captures ----------------------------------------

// BenchmarkExample3 runs both the WR test and a full rewriting over the
// paper's Example 3 (expected: WR; rewriting reaches a fixpoint).
func BenchmarkExample3(b *testing.B) {
	set := parser.MustParseRules(`
r(Y1,Y2) -> t(Y3,Y1,Y1) .
s(Y1,Y2,Y3) -> r(Y1,Y2) .
u(Y1), t(Y1,Y1,Y2) -> s(Y1,Y1,Y2) .
`)
	pq := parser.MustParseQuery(`q(X,Y) :- r(X,Y) .`)
	q := query.MustNew(pq.Head, pq.Body)
	b.Run("wr-check", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !pnode.Check(set).WR {
				b.Fatal("Example 3 must be WR")
			}
		}
	})
	b.Run("rewrite", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !rewrite.Rewrite(q, set, rewrite.DefaultOptions()).Complete {
				b.Fatal("Example 3 rewriting must complete")
			}
		}
	})
}

// --- C1: SWR membership is PTIME -----------------------------------------

// BenchmarkSWRCheckScaling measures the SWR test against growing rule
// counts; the paper claims PTIME membership, and the observed scaling is
// near-linear for these families.
func BenchmarkSWRCheckScaling(b *testing.B) {
	for _, n := range []int{10, 50, 100, 200} {
		set := datagen.Rules(datagen.Config{Family: datagen.FamilyLinear, Rules: n, Seed: 1})
		b.Run(fmt.Sprintf("linear-rules=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				posgraph.Check(set)
			}
		})
	}
	for _, n := range []int{10, 50, 100} {
		set := datagen.Rules(datagen.Config{Family: datagen.FamilyMultilinear, Rules: n, Seed: 1})
		b.Run(fmt.Sprintf("multilinear-rules=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				posgraph.Check(set)
			}
		})
	}
}

// --- C2: WR membership is PSPACE (exponential node space) ---------------

// BenchmarkWRCheckScaling measures the P-node graph construction against
// growing rule counts and arities; growth is visibly steeper than the
// position graph's, matching the PTIME-vs-PSPACE gap the paper reports.
func BenchmarkWRCheckScaling(b *testing.B) {
	for _, n := range []int{5, 10, 20} {
		set := datagen.Rules(datagen.Config{Family: datagen.FamilyLinear, Rules: n, Seed: 1})
		b.Run(fmt.Sprintf("linear-rules=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pnode.Check(set)
			}
		})
	}
	for _, ar := range []int{2, 3, 4} {
		set := datagen.Rules(datagen.Config{Family: datagen.FamilyMultilinear, Rules: 8, MaxArity: ar, Seed: 2})
		b.Run(fmt.Sprintf("multilinear-arity=%d", ar), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pnode.Check(set)
			}
		})
	}
}

// --- T1: SWR implies terminating rewriting ------------------------------

// BenchmarkRewriteHierarchyDepth rewrites an atomic query over class
// hierarchies of growing depth; output size (one disjunct per level) and
// time grow polynomially, never diverging — Theorem 1 at work.
func BenchmarkRewriteHierarchyDepth(b *testing.B) {
	for _, depth := range []int{4, 8, 16, 32} {
		set := datagen.ChainOntology(depth)
		pq := parser.MustParseQuery(fmt.Sprintf(`q(X) :- c%d(X) .`, depth))
		q := query.MustNew(pq.Head, pq.Body)
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := rewrite.Rewrite(q, set, rewrite.DefaultOptions())
				if !res.Complete || res.Kept != depth {
					b.Fatalf("chain rewriting wrong: complete=%v kept=%d", res.Complete, res.Kept)
				}
			}
		})
	}
}

// --- D1 + W1: rewriting vs chase as data grows ---------------------------

// BenchmarkRewritingVsChaseDataScaling answers the same query over the
// university ontology with both techniques at growing data sizes. The
// rewriting is computed once per query (data-independent) and evaluated in
// DBMS fashion; the chase cost grows with the data. The crossover shape —
// rewriting flat-ish, chase growing — is the paper's AC0 argument made
// concrete.
func BenchmarkRewritingVsChaseDataScaling(b *testing.B) {
	rules := datagen.University()
	pq := parser.MustParseQuery(`q(X) :- person(X) .`)
	q := query.MustNew(pq.Head, pq.Body)
	for _, depts := range []int{1, 4, 16} {
		data := datagen.UniversityData(depts, 1)
		b.Run(fmt.Sprintf("rewrite/depts=%d", depts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := rewrite.Rewrite(q, rules, rewrite.DefaultOptions())
				ans := eval.UCQ(res.UCQ, data, eval.Options{FilterNulls: true})
				if ans.Len() == 0 {
					b.Fatal("no answers")
				}
			}
		})
		b.Run(fmt.Sprintf("chase/depts=%d", depts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ans, res := chase.CertainAnswers(query.MustNewUCQ(q), rules, data, chase.Options{})
				if !res.Terminated || ans.Len() == 0 {
					b.Fatal("chase failed")
				}
			}
		})
	}
}

// BenchmarkEvaluationOnly isolates the DBMS-style evaluation of a
// precompiled rewriting — the per-query online cost once the ontology has
// been compiled away (the AC0 data-complexity claim).
func BenchmarkEvaluationOnly(b *testing.B) {
	rules := datagen.University()
	pq := parser.MustParseQuery(`q(X) :- person(X) .`)
	q := query.MustNew(pq.Head, pq.Body)
	res := rewrite.Rewrite(q, rules, rewrite.DefaultOptions())
	if !res.Complete {
		b.Fatal("rewriting must complete")
	}
	for _, depts := range []int{1, 4, 16, 64} {
		data := datagen.UniversityData(depts, 1)
		b.Run(fmt.Sprintf("depts=%d", depts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval.UCQ(res.UCQ, data, eval.Options{FilterNulls: true})
			}
		})
	}
}

// --- Substrate micro-benchmarks ------------------------------------------

// BenchmarkChaseScaling measures restricted-chase materialization of the
// university ontology against data size (linear in facts for this
// weakly-acyclic-per-component workload).
func BenchmarkChaseScaling(b *testing.B) {
	rules := datagen.University()
	for _, depts := range []int{1, 4, 16} {
		data := datagen.UniversityData(depts, 1)
		b.Run(fmt.Sprintf("depts=%d", depts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := chase.Run(rules, data, chase.Options{})
				if !res.Terminated {
					b.Fatal("chase must terminate")
				}
			}
		})
	}
}

// BenchmarkCQEvaluation measures the join engine on a 3-way join over
// generated data.
func BenchmarkCQEvaluation(b *testing.B) {
	rules := parser.MustParseRules(`
a(X,Y) -> x1(X) .
b(X,Y) -> x2(X) .
c(X,Y) -> x3(X) .
`)
	pq := parser.MustParseQuery(`q(X,W) :- a(X,Y), b(Y,Z), c(Z,W) .`)
	q := query.MustNew(pq.Head, pq.Body)
	for _, n := range []int{100, 1000} {
		data := datagen.Instance(rules, n, n/2, 3)
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval.CQ(q, data, eval.Options{})
			}
		})
	}
}

// --- Q1: compiled plans and the plan cache --------------------------------

// BenchmarkAnswerChase measures steady-state chase-mode answering over a
// warm materialization and a warm plan cache — the server-style repeated
// query. The single-flight build happens before the timer.
func BenchmarkAnswerChase(b *testing.B) {
	src := datagen.University().String() + "\n" + datagen.UniversityData(16, 1).String()
	for _, q := range []struct{ name, src string }{
		{"atomic", `q(X) :- person(X) .`},
		{"join", `q(X,P) :- advisor(X,P), professor(P), person(X) .`},
	} {
		b.Run(q.name, func(b *testing.B) {
			ont := MustParse(src)
			opts := Options{Mode: ModeChase}
			if _, err := ont.AnswerCtx(bg, q.src, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				ans, err := ont.AnswerCtx(bg, q.src, opts)
				if err != nil {
					b.Fatal(err)
				}
				n = ans.Len()
			}
			b.ReportMetric(float64(n), "answers")
		})
	}
}

// BenchmarkAnswerRewrite measures steady-state rewrite-mode answering over
// the published base snapshot: the rewriting is recomputed per call
// (data-independent), but the compiled plans of the rewritten UCQ come from
// the per-snapshot plan cache.
func BenchmarkAnswerRewrite(b *testing.B) {
	src := datagen.University().String() + "\n" + datagen.UniversityData(16, 1).String()
	const q = `q(X) :- person(X) .`
	ont := MustParse(src)
	opts := Options{Mode: ModeRewrite}
	if _, err := ont.AnswerCtx(bg, q, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ont.AnswerCtx(bg, q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- I1: incremental chase maintenance -----------------------------------

// BenchmarkIncrementalAddFact compares serving a stream of single-fact
// inserts from the incrementally maintained materialization (AddFact resumes
// the chase with just the new fact as delta) against re-chasing the whole
// instance from scratch per insert. Each iteration inserts one new fact and
// re-answers the same query.
func BenchmarkIncrementalAddFact(b *testing.B) {
	rules := datagen.University()
	const q = `q(X) :- person(X) .`
	b.Run("incremental", func(b *testing.B) {
		ont := MustParse(rules.String() + "\n" + datagen.UniversityData(16, 1).String())
		if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ont.AddFact(fmt.Sprintf("undergraduateStudent(bench%d) .", i)); err != nil {
				b.Fatal(err)
			}
			if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(ont.MaterializationStats().LastSteps), "delta-steps")
	})
	b.Run("scratch", func(b *testing.B) {
		data := datagen.UniversityData(16, 1)
		pq := parser.MustParseQuery(q)
		u := query.MustNewUCQ(query.MustNew(pq.Head, pq.Body))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fact := logic.NewAtom("undergraduateStudent", logic.NewConst(fmt.Sprintf("bench%d", i)))
			if err := data.InsertAtom(fact); err != nil {
				b.Fatal(err)
			}
			ans, res := chase.CertainAnswers(u, rules, data, chase.Options{})
			if !res.Terminated || ans.Len() == 0 {
				b.Fatal("chase failed")
			}
		}
	})
}

// BenchmarkDeleteFact compares DRed-style incremental deletion (DeleteFact
// over-deletes the fact's derived closure by re-evaluating the rules with
// the fact as the delta and rederives survivors) against removing the fact and re-chasing the whole instance
// from scratch. Each iteration deletes one pre-inserted fact and re-answers
// the same query; the dred arm's work is proportional to the deleted
// closure, the re-chase arm's to the instance.
func BenchmarkDeleteFact(b *testing.B) {
	rules := datagen.University()
	const q = `q(X) :- person(X) .`
	b.Run("dred", func(b *testing.B) {
		ont := MustParse(rules.String() + "\n" + datagen.UniversityData(16, 1).String())
		for i := 0; i < b.N; i++ {
			if err := ont.AddFact(fmt.Sprintf("undergraduateStudent(bench%d) .", i)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n, err := ont.DeleteFact(fmt.Sprintf("undergraduateStudent(bench%d) .", i)); err != nil || n != 1 {
				b.Fatalf("delete: n=%d err=%v", n, err)
			}
			if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(ont.MaterializationStats().LastSteps), "delta-steps")
	})
	b.Run("re-chase", func(b *testing.B) {
		data := datagen.UniversityData(16, 1)
		for i := 0; i < b.N; i++ {
			if err := data.InsertAtom(logic.NewAtom("undergraduateStudent", logic.NewConst(fmt.Sprintf("bench%d", i)))); err != nil {
				b.Fatal(err)
			}
		}
		pq := parser.MustParseQuery(q)
		u := query.MustNewUCQ(query.MustNew(pq.Head, pq.Body))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !data.Remove(logic.NewAtom("undergraduateStudent", logic.NewConst(fmt.Sprintf("bench%d", i)))) {
				b.Fatal("victim missing")
			}
			ans, res := chase.CertainAnswers(u, rules, data, chase.Options{})
			if !res.Terminated || ans.Len() == 0 {
				b.Fatal("chase failed")
			}
		}
	})
}

// --- R1: live ontology evolution ------------------------------------------

// BenchmarkAddRule compares extending a published materialization with a
// freshly added rule — AddRule resumes the chase with the whole instance as
// the delta against only the new rule — versus re-chasing the whole
// instance from scratch with the grown rule set. Each iteration adds one
// rule deriving a fresh predicate from the undergraduate population; the
// delta-steps metric shows the incremental arm's work is the new rule's
// firings alone.
func BenchmarkAddRule(b *testing.B) {
	rules := datagen.University()
	const q = `q(X) :- person(X) .`
	b.Run("incremental", func(b *testing.B) {
		ont := MustParse(rules.String() + "\n" + datagen.UniversityData(16, 1).String())
		if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ont.AddRuleCtx(bg, fmt.Sprintf("undergraduateStudent(X) -> cohort%d(X) .", i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(ont.MaterializationStats().LastSteps), "delta-steps")
	})
	b.Run("re-chase", func(b *testing.B) {
		data := datagen.UniversityData(16, 1)
		set := rules
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rule, err := parser.ParseRule(fmt.Sprintf("undergraduateStudent(X) -> cohort%d(X) .", i))
			if err != nil {
				b.Fatal(err)
			}
			if set, err = set.WithRule(rule); err != nil {
				b.Fatal(err)
			}
			if res := chase.Run(set, data, chase.Options{}); !res.Terminated {
				b.Fatal("chase failed")
			}
		}
	})
}

// BenchmarkRemoveRule compares DRed-style rule removal — over-delete the
// head facts of the rule's triggers and their closure, rederive survivors —
// against re-chasing the shrunk rule set from scratch. Each iteration
// removes a rule added (untimed) just before it.
func BenchmarkRemoveRule(b *testing.B) {
	rules := datagen.University()
	const q = `q(X) :- person(X) .`
	b.Run("incremental", func(b *testing.B) {
		ont := MustParse(rules.String() + "\n" + datagen.UniversityData(16, 1).String())
		if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := ont.AddRuleCtx(bg, fmt.Sprintf("undergraduateStudent(X) -> cohort%d(X) .", i)); err != nil {
				b.Fatal(err)
			}
			label := ont.Rules().Rules[ont.Rules().Len()-1].Label
			b.StartTimer()
			if err := ont.RemoveRuleCtx(bg, label); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(ont.MaterializationStats().LastSteps), "delta-steps")
	})
	b.Run("re-chase", func(b *testing.B) {
		data := datagen.UniversityData(16, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rule, err := parser.ParseRule(fmt.Sprintf("undergraduateStudent(X) -> cohort%d(X) .", i))
			if err != nil {
				b.Fatal(err)
			}
			grown, err := datagen.University().WithRule(rule)
			if err != nil {
				b.Fatal(err)
			}
			shrunk, err := grown.WithoutRule(grown.Len() - 1)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if res := chase.Run(shrunk, data, chase.Options{}); !res.Terminated {
				b.Fatal("chase failed")
			}
		}
	})
}

// BenchmarkSnapshotContention measures chase-mode answering under writer
// load: readers evaluate lock-free over published snapshots while a
// background writer streams AddFact deltas. The per-answer latency should
// match the uncontended case — readers never queue behind the writer.
func BenchmarkSnapshotContention(b *testing.B) {
	base := datagen.University().String() + "\n" + datagen.UniversityData(8, 1).String()
	const q = `q(X) :- person(X) .`
	for _, writers := range []bool{false, true} {
		name := "readers-only"
		if writers {
			name = "readers+writer"
		}
		b.Run(name, func(b *testing.B) {
			ont := MustParse(base)
			if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase}); err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			if writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if err := ont.AddFact(fmt.Sprintf("undergraduateStudent(w%d) .", i)); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase}); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkInstanceClone measures snapshotting a chased instance — the cost
// Clone pays when (re)building the cached materialization. Wholesale
// tuple/key/index copies, no re-hashing.
func BenchmarkInstanceClone(b *testing.B) {
	rules := datagen.University()
	res := chase.Run(rules, datagen.UniversityData(16, 1), chase.Options{})
	if !res.Terminated {
		b.Fatal("chase must terminate")
	}
	res.Instance.EnsureIndexes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Instance.Clone()
	}
}

// --- Ablations: design choices of the rewriter, the chase and the graphs --

// BenchmarkGraphConstructionOnly separates the two graph constructions from
// their cycle checks on a mid-sized generated set.
func BenchmarkGraphConstructionOnly(b *testing.B) {
	set := datagen.Rules(datagen.Config{Family: datagen.FamilyMultilinear, Rules: 12, Seed: 5})
	b.Run("position-graph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			posgraph.Build(set)
		}
	})
	b.Run("pnode-graph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pnode.Build(set)
		}
	})
}

// --- S1: streaming answers — time-to-first-tuple and LIMIT push-down ------

// denseGraphSrc generates a facts-only program whose 2-hop self-join has a
// large answer set (100 nodes x 30 out-edges = 3000 edge facts, ~90k join
// candidates): the fixture where full materialization is expensive but the
// first tuple falls out of the very first index probe.
func denseGraphSrc() string {
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		for j := 0; j < 30; j++ {
			fmt.Fprintf(&sb, "edge(n%d, n%d) .\n", i, (i*7+j*13+1)%100)
		}
	}
	return sb.String()
}

// BenchmarkFirstAnswer measures time-to-first-tuple of the streaming
// executor against materializing the full answer set of the same query —
// the ISSUE acceptance criterion is a >=10x gap. The streamed arm stops the
// iterator tree after one answer; the materialized arm pays the whole join.
func BenchmarkFirstAnswer(b *testing.B) {
	const q = `q(X, Z) :- edge(X, Y), edge(Y, Z) .`
	ont := MustParse(denseGraphSrc())
	// Warm the snapshot and plan cache so both arms measure steady state.
	if _, err := ont.AnswerCtx(bg, q, Options{}); err != nil {
		b.Fatal(err)
	}
	b.Run("streamed-first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got := 0
			err := ont.AnswerEach(context.Background(), q, Options{}, func(Answer) bool {
				got++
				return false
			})
			if err != nil || got != 1 {
				b.Fatalf("first answer: got %d, err %v", got, err)
			}
		}
	})
	b.Run("materialized-full", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			ans, err := ont.AnswerCtx(bg, q, Options{})
			if err != nil {
				b.Fatal(err)
			}
			n = ans.Len()
		}
		b.ReportMetric(float64(n), "answers")
	})
}

// BenchmarkAnswerLimited measures LIMIT push-down at k << n: the executor
// stops as soon as k distinct answers exist, so cost grows with k, not with
// the full result (the limit=0 arm is the full-result baseline).
func BenchmarkAnswerLimited(b *testing.B) {
	const q = `q(X, Z) :- edge(X, Y), edge(Y, Z) .`
	ont := MustParse(denseGraphSrc())
	full, err := ont.AnswerCtx(bg, q, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 10, 100, 0} {
		name := fmt.Sprintf("limit=%d", k)
		if k == 0 {
			name = "limit=all"
		}
		b.Run(name, func(b *testing.B) {
			want := k
			if k == 0 || full.Len() < k {
				want = full.Len()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ans, err := ont.AnswerCtx(bg, q, Options{Limit: k})
				if err != nil {
					b.Fatal(err)
				}
				if ans.Len() != want {
					b.Fatalf("limit %d returned %d answers, want %d", k, ans.Len(), want)
				}
			}
		})
	}
}

// --- PR 9: shared answer cache -------------------------------------------

// BenchmarkCachedAnswer measures the answer-view cache against full
// evaluation on a repeated query. uncached re-evaluates every call; warm
// answers from the cached view (one snapshot load plus a map lookup).
func BenchmarkCachedAnswer(b *testing.B) {
	src := datagen.University().String() + "\n" + datagen.UniversityData(16, 1).String()
	const q = `q(X) :- person(X) .`
	chase := Options{Mode: ModeChase}

	b.Run("uncached", func(b *testing.B) {
		ont := MustParse(src)
		bypass := chase
		bypass.NoCache = true
		if _, err := ont.AnswerCtx(bg, q, bypass); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ont.AnswerCtx(bg, q, bypass); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		ont := MustParse(src)
		ont.SetAnswerCacheBudget(DefaultAnswerCacheBytes)
		for i := 0; i < 2; i++ { // build, then fill the view
			if _, err := ont.AnswerCtx(bg, q, chase); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ont.AnswerCtx(bg, q, chase); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := ont.AnswerCacheStats(); st.Hits < uint64(b.N) {
			b.Fatalf("stats=%+v: the warm arm was not served from the cache", st)
		}
	})
}

package repro

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/logic"
)

// factSrc renders ground atoms as program text for AddFact.
func factSrc(atoms []logic.Atom) string {
	var b strings.Builder
	for _, a := range atoms {
		b.WriteString(a.String())
		b.WriteString(" .\n")
	}
	return b.String()
}

// atomicQueries returns one atomic query per predicate of the ontology.
func atomicQueries(t *testing.T, ont *Ontology) []string {
	t.Helper()
	preds, err := ont.Rules().Predicates()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for p, arity := range preds {
		vars := make([]string, arity)
		for i := range vars {
			vars[i] = fmt.Sprintf("X%d", i+1)
		}
		out = append(out, fmt.Sprintf("q(%s) :- %s(%s) .", strings.Join(vars, ","), p, strings.Join(vars, ",")))
	}
	return out
}

// TestPropertyAddFactIncrementalEqualsScratch is the maintenance-correctness
// property at the public API: over seeded random ontologies, feeding the
// facts in random interleavings of AddFact batches — with chase-mode Answer
// calls in between, so the cached materialization is repeatedly extended
// rather than rebuilt — must end with exactly the answers of an ontology
// chased from scratch on the full data.
func TestPropertyAddFactIncrementalEqualsScratch(t *testing.T) {
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain, datagen.FamilySticky}
	for _, fam := range families {
		for seed := int64(1); seed <= 5; seed++ {
			for _, par := range parLegs {
				t.Run(fmt.Sprintf("%v/seed=%d/par=%d", fam, seed, par), func(t *testing.T) {
					set := datagen.Rules(datagen.Config{Family: fam, Rules: 5, Seed: seed})
					data := datagen.Instance(set, 20, 8, seed)
					atoms := data.Atoms()

					rng := rand.New(rand.NewSource(seed * 7919))
					rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })

					// Start with a random prefix, feed the rest in random
					// batches interleaved with answering.
					cut := len(atoms) / 3
					ontInc, err := Parse(set.String() + "\n" + factSrc(atoms[:cut]))
					if err != nil {
						t.Fatal(err)
					}
					opts := Options{Mode: ModeChase, Parallelism: par}
					queries := atomicQueries(t, ontInc)
					if _, err := ontInc.AnswerCtx(bg, queries[0], opts); err != nil {
						t.Skipf("initial chase over budget: %v", err)
					}
					rest := atoms[cut:]
					for len(rest) > 0 {
						n := 1 + rng.Intn(5)
						if n > len(rest) {
							n = len(rest)
						}
						if err := ontInc.AddFact(factSrc(rest[:n])); err != nil {
							t.Fatal(err)
						}
						rest = rest[n:]
						if rng.Intn(2) == 0 {
							if _, err := ontInc.AnswerCtx(bg, queries[rng.Intn(len(queries))], opts); err != nil {
								t.Fatal(err)
							}
						}
					}

					ontScratch, err := Parse(set.String() + "\n" + factSrc(atoms))
					if err != nil {
						t.Fatal(err)
					}
					for _, q := range queries {
						inc, errInc := ontInc.AnswerCtx(bg, q, opts)
						scr, errScr := ontScratch.AnswerCtx(bg, q, opts)
						if (errInc == nil) != (errScr == nil) {
							t.Fatalf("%s: error divergence: inc=%v scratch=%v", q, errInc, errScr)
						}
						if errInc != nil {
							continue
						}
						if !inc.Equal(scr) {
							t.Errorf("%s: answers differ:\nincremental:\n%s\nscratch:\n%s", q, inc, scr)
						}
					}
					st := ontInc.MaterializationStats()
					if !st.Cached || st.Epoch < 2 {
						t.Errorf("stats = %+v, want cached materialization with ≥ 2 epochs", st)
					}
				})
			}
		}
	}
}

// TestIncrementalStepsProportionalToDelta asserts, through the public
// counters, that re-answering after a small AddFact performs chase work
// proportional to the delta, not to the instance: the increment's steps must
// be a handful while the initial build's were hundreds, and cumulative steps
// must be exactly initial + increments (nothing re-fired from scratch).
func TestIncrementalStepsProportionalToDelta(t *testing.T) {
	ont := MustParse(datagen.University().String() + "\n" + datagen.UniversityData(16, 1).String())
	const q = `q(X) :- person(X) .`
	before, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	s0 := ont.MaterializationStats()
	if !s0.Cached || !s0.Terminated || s0.Epoch != 1 {
		t.Fatalf("after first answer: stats = %+v", s0)
	}
	if s0.LastSteps < 100 {
		t.Fatalf("initial build fired %d steps; workload too small for the proportionality claim", s0.LastSteps)
	}

	if err := ont.AddFact(`undergraduateStudent(newcomer) .`); err != nil {
		t.Fatal(err)
	}
	after, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	s1 := ont.MaterializationStats()
	if s1.Epoch != 2 {
		t.Errorf("Epoch = %d, want 2 (one incremental extension)", s1.Epoch)
	}
	if s1.LastSteps == 0 || s1.LastSteps > 10 {
		t.Errorf("incremental LastSteps = %d, want 1..10 (initial build: %d)", s1.LastSteps, s0.LastSteps)
	}
	if s1.Steps != s0.Steps+s1.LastSteps {
		t.Errorf("cumulative Steps = %d, want initial %d + increment %d", s1.Steps, s0.Steps, s1.LastSteps)
	}
	if after.Len() != before.Len()+1 {
		t.Errorf("answers: %d -> %d, want exactly one new person", before.Len(), after.Len())
	}
	if !after.Contains([]logic.Term{logic.NewConst("newcomer")}) {
		t.Error("person(newcomer) must be a certain answer after AddFact")
	}
}

// TestAddFactAlreadyDerivedIsFree: inserting a fact the chase had already
// derived extends nothing — epoch bumps, zero steps, answers unchanged.
func TestAddFactAlreadyDerivedIsFree(t *testing.T) {
	ont := MustParse(`
student(X) -> person(X) .
student(alice) .
`)
	if _, err := ont.AnswerCtx(bg, `q(X) :- person(X) .`, Options{Mode: ModeChase}); err != nil {
		t.Fatal(err)
	}
	if err := ont.AddFact(`person(alice) .`); err != nil {
		t.Fatal(err)
	}
	st := ont.MaterializationStats()
	if st.Epoch != 2 || st.LastSteps != 0 {
		t.Errorf("stats = %+v, want epoch 2 with 0 incremental steps", st)
	}
	ans, err := ont.AnswerCtx(bg, `q(X) :- person(X) .`, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Errorf("answers = %d, want 1", ans.Len())
	}
}

// TestLoadCSVMaintainsMaterialization: bulk CSV loads must extend the
// cached materialization like AddFact does — chase answers after a load must
// see the loaded tuples' consequences (regression: the cache used to be
// served stale).
func TestLoadCSVMaintainsMaterialization(t *testing.T) {
	ont := MustParse(`
student(X) -> person(X) .
student(alice) .
`)
	const q = `q(X) :- person(X) .`
	if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase}); err != nil {
		t.Fatal(err)
	}
	n, err := ont.LoadCSVCtx(bg, "student", strings.NewReader("bob\ncarol\nalice\n"))
	if err != nil || n != 2 {
		t.Fatalf("LoadCSV: n=%d err=%v (alice is a duplicate)", n, err)
	}
	ans, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 3 {
		t.Errorf("persons after load = %d, want 3:\n%s", ans.Len(), ans)
	}
	st := ont.MaterializationStats()
	if st.Epoch != 2 || st.LastSteps != 2 {
		t.Errorf("stats = %+v, want epoch 2 with a 2-step increment", st)
	}
	// A malformed load is atomic and leaves the cache consistent.
	if _, err := ont.LoadCSVCtx(bg, "student", strings.NewReader("x,y\nz\n")); err == nil {
		t.Fatal("ragged CSV must error")
	}
	ans, err = ont.AnswerCtx(bg, q, Options{Mode: ModeChase})
	if err != nil || ans.Len() != 3 {
		t.Errorf("after failed load: answers=%v err=%v, want the 3 persons", ans, err)
	}
}

// TestModeAutoFallsBackToChase: when the classification certifies
// FO-rewritability but the rewriting hits its budget, ModeAuto must fall
// back to materialization instead of surfacing the budget error; only an
// explicit ModeRewrite surfaces it.
func TestModeAutoFallsBackToChase(t *testing.T) {
	ont := MustParse(datagen.University().String() + "\n" + datagen.UniversityData(1, 1).String())
	if !ont.Classify().FORewritable {
		t.Fatal("university ontology must be FO-rewritable")
	}
	const q = `q(X) :- person(X) .`
	// person(X) rewrites to several disjuncts; a budget of 2 cannot hold it.
	tiny := Options{Mode: ModeAuto, MaxRewriteCQs: 2}
	auto, err := ont.AnswerCtx(bg, q, tiny)
	if err != nil {
		t.Fatalf("ModeAuto must fall back to the chase, got error: %v", err)
	}
	want, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	if !auto.Equal(want) {
		t.Errorf("fallback answers differ from chase answers:\nauto:\n%s\nchase:\n%s", auto, want)
	}
	if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeRewrite, MaxRewriteCQs: 2}); err == nil {
		t.Error("explicit ModeRewrite must surface the budget error")
	}
}

// TestChaseBudgetsThreadedThroughOptions: Options.MaxSteps reaches the chase
// (tiny budget fails; raising it succeeds and rebuilds the cache).
func TestChaseBudgetsThreadedThroughOptions(t *testing.T) {
	ont := MustParse(datagen.University().String() + "\n" + datagen.UniversityData(4, 1).String())
	const q = `q(X) :- person(X) .`
	if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase, MaxSteps: 3}); err == nil {
		t.Fatal("MaxSteps=3 must truncate the chase and error")
	}
	if st := ont.MaterializationStats(); st.Terminated {
		t.Errorf("truncated cache must not claim termination: %+v", st)
	}
	ans, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase})
	if err != nil {
		t.Fatalf("default budget must rebuild and succeed: %v", err)
	}
	if ans.Len() == 0 {
		t.Error("no answers after rebuild")
	}
	// A repeated tiny-budget request is served the cached (terminated)
	// materialization: a fixpoint is a fixpoint under any budget.
	if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase, MaxSteps: 3}); err != nil {
		t.Errorf("terminated cache must serve smaller budgets: %v", err)
	}
}

// TestDataWritesPanicOnFrozenGenerations: inserting through the Data()
// accessor would bypass the writer lock and every cache, so it panics — the
// published base is frozen — and answers in both modes are unchanged, with
// no rebuild. An AddFact afterwards still lands, incrementally, and the old
// and new generations and the materialization all refuse writes.
func TestDataWritesPanicOnFrozenGenerations(t *testing.T) {
	ont := MustParse(`
student(X) -> person(X) .
student(alice) .
`)
	const q = `q(X) :- person(X) .`
	if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase}); err != nil {
		t.Fatal(err)
	}
	before := ont.MaterializationStats()
	held := ont.Data()
	mustPanic(t, "Data().InsertAtom", func() { held.InsertAtom(logic.NewAtom("student", logic.NewConst("rogue"))) })
	for _, mode := range []AnswerMode{ModeChase, ModeRewrite} {
		ans, err := ont.AnswerCtx(bg, q, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if ans.Len() != 1 || ans.Contains([]logic.Term{logic.NewConst("rogue")}) {
			t.Errorf("mode %v: answers changed after the refused Data() write:\n%s", mode, ans)
		}
	}
	if after := ont.MaterializationStats(); after.Epoch != before.Epoch || after.FullRebuilds != before.FullRebuilds {
		t.Errorf("stats %+v -> %+v: a refused write must not rebuild", before, after)
	}

	// The instance held across an AddFact is the old generation: still
	// frozen, and still without the new fact. The generation AddFact
	// publishes is frozen too, base and materialization alike.
	if err := ont.AddFact(`student(dana) .`); err != nil {
		t.Fatal(err)
	}
	rogue2 := logic.NewAtom("student", logic.NewConst("rogue2"))
	mustPanic(t, "old generation InsertAtom", func() { held.InsertAtom(rogue2) })
	mustPanic(t, "new generation InsertAtom", func() { ont.Data().InsertAtom(rogue2) })
	mustPanic(t, "materialization InsertAtom", func() { ont.snap.Load().mat.store.InsertAtom(rogue2) })
	if held.ContainsAtom(logic.NewAtom("student", logic.NewConst("dana"))) {
		t.Error("an AddFact wrote through the generation it forked")
	}
	ans, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Contains([]logic.Term{logic.NewConst("dana")}) || ans.Contains([]logic.Term{logic.NewConst("rogue2")}) {
		t.Errorf("answers after AddFact:\n%s", ans)
	}
	if st := ont.MaterializationStats(); st.FullRebuilds != before.FullRebuilds {
		t.Errorf("FullRebuilds %d -> %d: AddFact must extend the cache", before.FullRebuilds, st.FullRebuilds)
	}
}

// TestAddFactBatchAtomic: an arity conflict anywhere in a multi-fact batch
// must reject the whole batch, leaving data, cache and answers untouched.
func TestAddFactBatchAtomic(t *testing.T) {
	ont := MustParse(`
student(X) -> person(X) .
student(alice) .
`)
	const q = `q(X) :- person(X) .`
	if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase}); err != nil {
		t.Fatal(err)
	}
	e0 := ont.MaterializationStats()
	if err := ont.AddFact(`student(bob) . student(x, y) .`); err == nil {
		t.Fatal("arity conflict in batch must error")
	}
	if ont.Data().Relation("student").Len() != 1 {
		t.Error("batch must be all-or-nothing: student(bob) leaked in")
	}
	e1 := ont.MaterializationStats()
	if !e1.Cached || e1.Epoch != e0.Epoch {
		t.Errorf("rejected batch must keep the cache: %+v -> %+v", e0, e1)
	}
	ans, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase})
	if err != nil || ans.Len() != 1 {
		t.Errorf("answers after rejected batch: %v err=%v, want just alice", ans, err)
	}
}

// TestTruncatedAnswerUnderWriterStreamTerminates: a chase that always hits
// its budget, plus a writer stream that keeps dropping the truncated cache,
// must still make AnswerCtx return the budget error after bounded
// attempts (regression: the rebuild loop could starve).
func TestTruncatedAnswerUnderWriterStreamTerminates(t *testing.T) {
	ont := MustParse(`
person(X) -> hasParent(X, Y) .
hasParent(X, Y) -> person(Y) .
person(eve) .
`)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := ont.AddFact(fmt.Sprintf("person(w%d) .", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	if _, err := ont.AnswerCtx(bg, `q(X) :- person(X) .`, Options{Mode: ModeChase, MaxSteps: 10}); err == nil {
		t.Error("truncated chase must surface the budget error")
	}
	<-done
}

// TestConcurrentAnswerAndAddFact hammers the epoch/RWMutex seam: readers
// answer in chase mode over frozen snapshots while a writer streams AddFact
// deltas. Run under -race this is the coordination test; afterwards the
// answers must equal a from-scratch chase of the final data.
func TestConcurrentAnswerAndAddFact(t *testing.T) {
	base := datagen.University().String() + "\n" + datagen.UniversityData(2, 1).String()
	ont := MustParse(base)
	const q = `q(X) :- person(X) .`
	if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase}); err != nil {
		t.Fatal(err)
	}

	const writers = 20
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < writers; i++ {
			if err := ont.AddFact(fmt.Sprintf("graduateStudent(g%d) .", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < writers; i++ {
			if _, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	scratch := MustParse(base)
	for i := 0; i < writers; i++ {
		if err := scratch.AddFact(fmt.Sprintf("graduateStudent(g%d) .", i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	want, err := scratch.AnswerCtx(bg, q, Options{Mode: ModeChase})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("concurrent maintenance diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestColdBuildSharesBase: the first chase-mode answer chases a
// copy-on-write fork of the base, so every base relation the chase never
// derives into is the base's own *Relation in the materialization — stored
// once, not copied. Later fact mutations fork both stores and leave the
// snapshot that shared them reading as it did.
func TestColdBuildSharesBase(t *testing.T) {
	ont := New(datagen.University(), datagen.UniversityData(20, 1))
	if _, err := ont.AnswerCtx(bg, "q(X) :- person(X) .", Options{Mode: ModeChase}); err != nil {
		t.Fatal(err)
	}
	built := ont.snap.Load()
	shared := 0
	for _, pred := range built.base.Predicates() {
		base, mat := built.base.Relation(pred), built.mat.store.Relation(pred)
		if mat.Len() > base.Len() {
			continue // the chase derived into it: the fork owns a copy
		}
		if base != mat {
			t.Errorf("%s: the chase derived nothing into it, but the materialization holds a copy", pred)
		}
		shared++
	}
	if shared == 0 {
		t.Fatal("no base relation is shared; the test checks nothing")
	}

	baseAtoms, matAtoms := built.base.Atoms(), built.mat.store.Atoms()
	fresh := []logic.Atom{
		logic.NewAtom("graduateStudent", logic.NewConst("newcomer")),
		logic.NewAtom("takesCourse", logic.NewConst("newcomer"), logic.NewConst("course0_0")),
	}
	if n, err := ont.AddFactAtoms(bg, fresh); err != nil || n != len(fresh) {
		t.Fatalf("AddFactAtoms = %d, %v", n, err)
	}
	if n, err := ont.DeleteFactCtx(bg, `fullProfessor(prof0_0) . graduateStudent(student0_0) .`); err != nil || n != 2 {
		t.Fatalf("DeleteFactCtx = %d, %v", n, err)
	}
	if ont.snap.Load() == built {
		t.Fatal("the mutations published nothing")
	}
	if !slices.EqualFunc(built.base.Atoms(), baseAtoms, logic.Atom.Equal) {
		t.Error("a mutation changed the earlier snapshot's base")
	}
	if !slices.EqualFunc(built.mat.store.Atoms(), matAtoms, logic.Atom.Equal) {
		t.Error("a mutation changed the earlier snapshot's materialization")
	}
}

// TestChaseCtxForksBase: ChaseCtx chases a copy-on-write fork of the frozen
// published base, not a deep copy. Every base relation the chase did not
// grow is the base's own, and writing to the returned instance leaves Data()
// as it was.
func TestChaseCtxForksBase(t *testing.T) {
	ont := New(datagen.University(), datagen.UniversityData(20, 1))
	data := ont.Data()
	before := data.Atoms()
	res := ont.ChaseCtx(bg, Options{})
	if !res.Terminated {
		t.Fatal("chase must terminate")
	}
	shared := 0
	for _, pred := range data.Predicates() {
		base, out := data.Relation(pred), res.Instance.Relation(pred)
		if out.Len() > base.Len() {
			continue // the chase derived into it: the fork owns a copy
		}
		if base != out {
			t.Errorf("%s: the chase derived nothing into it, but the result holds a copy", pred)
		}
		shared++
	}
	if shared == 0 {
		t.Fatal("no base relation is shared; the test checks nothing")
	}
	for _, pred := range data.Predicates() {
		for _, tu := range res.Instance.Relation(pred).Tuples() {
			res.Instance.Remove(logic.Atom{Pred: pred, Args: tu})
			break
		}
	}
	if err := res.Instance.InsertAtom(logic.NewAtom("graduateStudent", logic.NewConst("newcomer"))); err != nil {
		t.Fatal(err)
	}
	if ont.Data() != data || !slices.EqualFunc(data.Atoms(), before, logic.Atom.Equal) {
		t.Error("writing to ChaseCtx's result changed the published base")
	}
}

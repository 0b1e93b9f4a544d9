package repro

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dependency"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/storage"
)

// pushAnswers and pullAnswers drain AnswerEach and the read path's own
// iterator (openAnswer) into the rendered rows, in stream order.
func pushAnswers(ont *Ontology, q string, opts Options) ([]string, error) {
	var out []string
	err := ont.AnswerEach(context.Background(), q, opts, func(a Answer) bool {
		out = append(out, naive.Render(a))
		return true
	})
	return out, err
}

func pullAnswers(ont *Ontology, q string, opts Options) ([]string, error) {
	s, err := ont.openAnswer(context.Background(), q, opts)
	if err != nil {
		return nil, err
	}
	var out []string
	for {
		a, ok, err := s.next(context.Background())
		if err != nil || !ok {
			return out, err
		}
		out = append(out, naive.Render(a))
	}
}

// TestStreamingAnswersNoticeCancellation is the public-API half of the
// dense-stream cancellation regression (see eval.TestStreamNoticesCancellation):
// AnswerEach and the pull iterator under it (answerStream) must fail within
// two poll intervals of a cancel that lands mid-stream, instead of delivering
// all 20 000 rows.
func TestStreamingAnswersNoticeCancellation(t *testing.T) {
	const facts, pollInterval = 20000, 4096
	var src strings.Builder
	for i := 0; i < facts; i++ {
		fmt.Fprintf(&src, "p(c%d) .\n", i)
	}
	ont := MustParse(src.String())
	const q = `q(X) :- p(X) .`

	t.Run("AnswerEach", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rows := 0
		err := ont.AnswerEach(ctx, q, Options{}, func(Answer) bool {
			if rows++; rows == 10 {
				cancel()
			}
			return true
		})
		if !errors.Is(err, context.Canceled) || rows > 10+2*pollInterval {
			t.Fatalf("err = %v after %d rows, want context.Canceled within %d rows of the cancel", err, rows, 2*pollInterval)
		}
	})
	t.Run("AnswerStream", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s, err := ont.openAnswer(ctx, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for err == nil && rows <= 10+2*pollInterval {
			var ok bool
			if _, ok, err = s.next(ctx); !ok {
				break
			}
			if rows++; rows == 10 {
				cancel()
			}
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v after %d rows, want context.Canceled within %d rows of the cancel", err, rows, 2*pollInterval)
		}
	})
}

// TestAnswerEachJoinsCache pins what the shared open gives the push
// surface: a completed AnswerEach fills the answer-view cache and the next
// one hits it; a Limit replays exactly the first k tuples of the unlimited
// stream; NoCache neither reads nor fills; an early stop stores no view.
func TestAnswerEachJoinsCache(t *testing.T) {
	const q = `q(X) :- person(X) .`
	for _, mode := range []AnswerMode{ModeAuto, ModeChase} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			ont := cachedOnt(t, universityMini)
			opts := Options{Mode: mode}

			if _, err := pushAnswers(ont, q, Options{Mode: mode, NoCache: true}); err != nil {
				t.Fatal(err)
			}
			if st := ont.AnswerCacheStats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
				t.Fatalf("NoCache touched the cache: %+v", st)
			}

			stops := 0
			if err := ont.AnswerEach(context.Background(), q, opts, func(Answer) bool { stops++; return false }); err != nil {
				t.Fatal(err)
			}
			if st := ont.AnswerCacheStats(); stops != 1 || st.Entries != 0 {
				t.Fatalf("a stream stopped after %d rows stored a view: %+v", stops, st)
			}

			full, err := pushAnswers(ont, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st := ont.AnswerCacheStats(); st.Entries != 1 || st.Hits != 0 {
				t.Fatalf("a completed AnswerEach did not fill the cache: %+v", st)
			}
			again, err := pushAnswers(ont, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st := ont.AnswerCacheStats(); st.Hits != 1 {
				t.Fatalf("the second AnswerEach did not hit the view: %+v", st)
			}
			if !slices.Equal(again, full) {
				t.Fatalf("replayed stream differs from the evaluated one:\n%v\nvs\n%v", again, full)
			}
			const k = 2
			limited, err := pushAnswers(ont, q, Options{Mode: mode, Limit: k})
			if err != nil {
				t.Fatal(err)
			}
			if st := ont.AnswerCacheStats(); st.Hits != 2 || !slices.Equal(limited, full[:k]) {
				t.Fatalf("Limit %d over the view = %v (stats %+v), want the prefix %v", k, limited, st, full[:k])
			}
		})
	}
}

// TestReadPathDifferential compares the three consumers of the one read
// path — AnswerCtx (collect), AnswerEach (push), openAnswer's iterator
// (pull) — with each other and with the naive oracle, across answering mode,
// cache state (bypassed, cold, warm), Limit and chase workers. Unlimited, every surface returns the oracle's set; limited,
// every surface returns the same rows, the prefix of the unlimited stream in
// the same cache state.
func TestReadPathDifferential(t *testing.T) {
	inputs := map[string]func(t *testing.T) *Ontology{}
	for seed := int64(1); seed <= 3; seed++ {
		for _, fam := range []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain, datagen.FamilySticky} {
			inputs[fmt.Sprintf("%v/seed=%d", fam, seed)] = func(t *testing.T) *Ontology {
				return ontologyFromDatagen(t, fam, 5, seed)
			}
		}
		src := datagen.University().String() + "\n" + datagen.UniversityData(2, seed).String()
		inputs[fmt.Sprintf("university/seed=%d", seed)] = func(*testing.T) *Ontology { return MustParse(src) }
	}
	for name, build := range inputs {
		t.Run(name, func(t *testing.T) {
			base := build(t)
			queries := atomicQueriesOf(t, base.Rules())
			// The reference is only affordable where the chase is finite.
			var ref *oracle
			if _, err := base.AnswerOptions(queries[0], Options{Mode: ModeChase}); err == nil {
				var ok bool
				if ref, ok = oracleOf(base.Rules(), base.Data().Atoms(), 20*base.MaterializationStats().Steps+1000); !ok {
					t.Fatal("oracle over budget on a chase the engine finished")
				}
			}
			for _, mode := range []AnswerMode{ModeAuto, ModeChase} {
				for _, par := range []int{1, 2} {
					ont := build(t)
					opts := Options{Mode: mode, Parallelism: par}
					for _, q := range queries {
						diffReadPath(t, ont, ref, q, opts)
					}
				}
			}
		})
	}
}

// diffReadPath runs one query through every surface × cache state × limit.
func diffReadPath(t *testing.T, ont *Ontology, ref *oracle, q string, opts Options) {
	t.Helper()
	surfaces := []struct {
		name string
		run  func(Options) ([]string, error)
	}{
		{"AnswerCtx", func(o Options) ([]string, error) {
			ans, err := ont.AnswerCtx(context.Background(), q, o)
			if err != nil {
				return nil, err
			}
			rows := make([]string, ans.Len())
			for i, a := range ans.Tuples() {
				rows[i] = naive.Render(a)
			}
			return rows, nil
		}},
		{"AnswerEach", func(o Options) ([]string, error) { return pushAnswers(ont, q, o) }},
		{"openAnswer", func(o Options) ([]string, error) { return pullAnswers(ont, q, o) }},
	}
	dropViews := func() {
		ont.SetAnswerCacheBudget(0)
		ont.SetAnswerCacheBudget(DefaultAnswerCacheBytes)
	}
	for _, state := range []string{"off", "cold", "warm"} {
		o := opts
		o.NoCache = state == "off"
		dropViews()
		if state == "warm" {
			// The collector fills the view: that set is what every surface
			// replays.
			if _, err := ont.AnswerCtx(context.Background(), q, o); err != nil {
				continue // budget hit; the cold leg compared the errors
			}
		}
		hitsBefore := ont.AnswerCacheStats().Hits
		stream, streamErr := surfaces[2].run(o)
		for _, limit := range []int{0, 1, len(stream)/2 + 1} {
			o.Limit = limit
			want := stream
			if limit > 0 && limit < len(stream) {
				want = stream[:limit]
			}
			for _, s := range surfaces {
				if state == "cold" {
					dropViews()
				}
				got, err := s.run(o)
				label := fmt.Sprintf("%s %+v cache=%s %s", q, o, state, s.name)
				if (err == nil) != (streamErr == nil) {
					t.Fatalf("%s: err = %v, the unlimited stream's was %v", label, err, streamErr)
				}
				if err != nil {
					continue
				}
				if limit == 0 {
					// Collected sets carry no order.
					got, want = slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s:\ngot  %v\nwant %v", label, got, want)
				}
				if limit == 0 && ref != nil && !slices.Equal(got, ref.answers(t, q)) {
					t.Fatalf("%s: answers differ from the oracle:\nengine: %v\noracle: %v", label, got, ref.answers(t, q))
				}
			}
		}
		if state == "warm" && streamErr == nil && ont.AnswerCacheStats().Hits < hitsBefore+10 {
			t.Fatalf("%s %+v: warm surfaces did not hit the view (hits %d → %d)", q, opts, hitsBefore, ont.AnswerCacheStats().Hits)
		}
	}
}

// TestMutationScriptsDifferential is the differential test over mutation
// scripts: a seeded random script of AddFact / DeleteFact / AddRule /
// RemoveRule — some under a context that cancels at a random poll — runs
// beside a reader that keeps answering. The test mirrors the committed
// prefixes of the script (rule set and facts after each mutation that
// returned nil) and chases each with the naive oracle. Snapshot isolation:
// every answer the reader saw equals the oracle's on one committed prefix,
// and on one that was current at some point during the read. Afterwards the
// three answering surfaces agree with the oracle on the final state, cache
// off, cold and warm. `make test` runs it under -race. The P=1 in the
// subtest names dates from the hash-partitioned store: it names the one store.
func TestMutationScriptsDifferential(t *testing.T) {
	for _, fam := range []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain, datagen.FamilySticky} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d/P=1", fam, seed), func(t *testing.T) {
				runMutationScript(t, fam, seed)
			})
		}
	}
}

func runMutationScript(t *testing.T, fam datagen.Family, seed int64) {
	full := datagen.Rules(datagen.Config{Family: fam, Rules: 8, Seed: seed})
	atoms := datagen.Instance(full, 20, 8, seed).Atoms()
	rng := rand.New(rand.NewSource(seed * 2654435761))
	rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })

	ruleReserve := full.Rules[5:]
	cut := 2 * len(atoms) / 3
	factReserve := atoms[cut:]
	live := make(map[string]logic.Atom)
	for _, a := range atoms[:cut] {
		live[a.Key()] = a
	}
	ont := cachedOnt(t, dependency.MustNewSet(full.Rules[:5]...).String()+"\n"+factSrc(atoms[:cut]))
	opts := Options{MaxSteps: 20000}
	queries := atomicQueriesOf(t, full) // the full signature: reserve rules' predicates too

	// prefixes[i] is the ontology after i committed mutations.
	type prefix struct {
		rules *dependency.Set
		facts []logic.Atom
	}
	var prefixes []prefix
	var committed atomic.Int64
	commit := func() {
		facts := make([]logic.Atom, 0, len(live))
		for _, a := range live {
			facts = append(facts, a)
		}
		prefixes = append(prefixes, prefix{ont.Rules(), facts})
		committed.Store(int64(len(prefixes) - 1))
	}
	commit()

	// The reader: random query, ModeAuto or ModeChase, through the cache or
	// past it, bracketed by the committed count before and after.
	type observation struct {
		q      string
		lo, hi int
		rows   []string
		err    error
	}
	var seen []observation
	var started atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rrng := rand.New(rand.NewSource(seed))
		for {
			select {
			case <-stop:
				return
			default:
			}
			o := opts
			o.Mode = []AnswerMode{ModeAuto, ModeChase}[rrng.Intn(2)]
			o.NoCache = rrng.Intn(2) == 0
			ob := observation{q: queries[rrng.Intn(len(queries))], lo: int(committed.Load())}
			started.Add(1)
			ans, err := ont.AnswerOptions(ob.q, o)
			// A mutation publishes before the script counts it.
			ob.hi = int(committed.Load()) + 1
			if ob.err = err; err == nil {
				ob.rows = renderedAnswers(ans)
			}
			seen = append(seen, ob)
		}
	}()

	for step := 0; step < 16; step++ {
		// Each mutation lands beside a read in flight.
		for n := started.Load(); started.Load() == n; {
			runtime.Gosched()
		}
		// One mutation in three runs under a context that cancels at a random
		// poll: it either aborts (publishing nothing) or had already finished.
		ctx := context.Context(context.Background())
		if rng.Intn(3) == 0 {
			ctx = newTrippingCtx(int64(rng.Intn(4)))
		}
		var err error
		var apply func()
		switch op := rng.Intn(6); {
		case op == 0 && len(ruleReserve) > 0:
			err = ont.AddRuleCtx(ctx, ruleSrc(ruleReserve[0]))
			apply = func() { ruleReserve = ruleReserve[1:] }
		case op == 1 && ont.Rules().Len() > 1:
			rules := ont.Rules()
			err = ont.RemoveRuleCtx(ctx, rules.Rules[rng.Intn(rules.Len())].Label)
			apply = func() {}
		case op <= 3 && len(factReserve) > 0:
			batch := factReserve[:min(1+rng.Intn(3), len(factReserve))]
			err = ont.AddFactCtx(ctx, factSrc(batch))
			apply = func() {
				for _, a := range batch {
					live[a.Key()] = a
				}
				factReserve = factReserve[len(batch):]
			}
		default:
			var victims []logic.Atom
			for _, a := range live {
				if victims = append(victims, a); len(victims) == 1+rng.Intn(3) {
					break
				}
			}
			var n int
			n, err = ont.DeleteFactCtx(ctx, factSrc(victims))
			if err == nil && n != len(victims) {
				t.Fatalf("DeleteFact removed %d of %d live facts", n, len(victims))
			}
			apply = func() {
				for _, a := range victims {
					delete(live, a.Key())
				}
			}
		}
		switch {
		case err == nil:
			apply()
			commit()
		case !errors.Is(err, context.Canceled):
			t.Fatalf("step %d: %v", step, err)
		}
	}
	close(stop)
	wg.Wait()

	// The oracle's answers on every committed prefix. Random rule additions
	// can evolve the set into a non-terminating one; nothing is comparable
	// from there on.
	refs := make([]*oracle, len(prefixes))
	for i, p := range prefixes {
		var ok bool
		if refs[i], ok = oracleOf(p.rules, p.facts, 20000); !ok {
			t.Skipf("reference chase of prefix %d over budget", i)
		}
	}
	for _, ob := range seen {
		if ob.err != nil {
			t.Fatalf("%s read between prefixes %d and %d: %v", ob.q, ob.lo, ob.hi, ob.err)
		}
		match := false
		for i := ob.lo; i <= min(ob.hi, len(refs)-1) && !match; i++ {
			match = slices.Equal(ob.rows, refs[i].answers(t, ob.q))
		}
		if !match {
			t.Fatalf("%s read between prefixes %d and %d matches none of them:\nread:   %v\noracle: %v",
				ob.q, ob.lo, ob.hi, ob.rows, refs[ob.lo].answers(t, ob.q))
		}
	}
	t.Logf("%d reads beside %d committed mutations of 16", len(seen), len(prefixes)-1)

	final := refs[len(refs)-1]
	if got, want := naive.GroundFacts(ont.Data().Atoms()), naive.GroundFacts(prefixes[len(prefixes)-1].facts); !slices.Equal(got, want) {
		t.Fatalf("published base differs from the mirrored facts:\ngot  %v\nwant %v", got, want)
	}
	for _, mode := range []AnswerMode{ModeAuto, ModeChase} {
		o := opts
		o.Mode = mode
		for _, q := range queries {
			diffReadPath(t, ont, final, q, o)
		}
	}
}

// TestPlanCacheKeyedByStore pins the plan cache key: a query whose rewriting
// is the query itself has the same canonical UCQ in both modes, and the plans
// compiled for the base data and for the materialization used to evict each
// other, so alternating the modes recompiled on every call.
func TestPlanCacheKeyedByStore(t *testing.T) {
	ont := MustParse(`
a(X) -> b(X) .
a(c1) . a(c2) .
`)
	var compiles atomic.Int64
	compileUCQ = func(u *query.UCQ, ins *storage.Instance, p eval.Planner, j eval.JoinStrategy) []*eval.Plan {
		compiles.Add(1)
		return eval.CompileUCQ(u, ins, p, j)
	}
	defer func() { compileUCQ = eval.CompileUCQ }()
	const q = `q(X) :- a(X) .` // no rule derives a: the rewriting is q itself
	for i := 0; i < 5; i++ {
		for _, mode := range []AnswerMode{ModeChase, ModeRewrite} {
			ans, err := ont.AnswerMode(q, mode)
			if err != nil || ans.Len() != 2 {
				t.Fatalf("mode %d: %v, err=%v", mode, ans, err)
			}
		}
	}
	// One compilation over the materialization, one over the base data.
	if n := compiles.Load(); n != 2 {
		t.Errorf("eval.CompileUCQ ran %d times over 5 chase/rewrite alternations, want 2", n)
	}
}

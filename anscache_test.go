package repro

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/logic"
)

// cachedOnt parses src with the answer-view cache enabled.
func cachedOnt(t *testing.T, src string) *Ontology {
	t.Helper()
	ont, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ont.SetAnswerCacheBudget(DefaultAnswerCacheBytes)
	return ont
}

// TestPropertyCachedEqualsUncached is the cache-correctness property:
// over seeded random ontologies, interleaving AddFact batches with
// repeated answering must give exactly the answers of an uncached
// evaluation at every step — hits and misses alike. Sequential and
// parallel.
func TestPropertyCachedEqualsUncached(t *testing.T) {
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain, datagen.FamilySticky}
	for _, fam := range families {
		for seed := int64(1); seed <= 4; seed++ {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v/seed=%d/par=%d", fam, seed, par), func(t *testing.T) {
					set := datagen.Rules(datagen.Config{Family: fam, Rules: 5, Seed: seed})
					data := datagen.Instance(set, 20, 8, seed)
					atoms := data.Atoms()
					rng := rand.New(rand.NewSource(seed * 104729))
					rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })

					cut := len(atoms) / 2
					ont := cachedOnt(t, set.String()+"\n"+factSrc(atoms[:cut]))
					opts := Options{Mode: ModeChase, Parallelism: par}
					queries := atomicQueries(t, ont)
					if _, err := ont.AnswerOptions(queries[0], opts); err != nil {
						t.Skipf("initial chase over budget: %v", err)
					}

					check := func() {
						q := queries[rng.Intn(len(queries))]
						// Answer twice so at least one call can be served
						// from a view, then compare to a cache-bypassing
						// evaluation of the same ontology.
						if _, err := ont.AnswerOptions(q, opts); err != nil {
							t.Fatal(err)
						}
						cached, err := ont.AnswerOptions(q, opts)
						if err != nil {
							t.Fatal(err)
						}
						bypass := opts
						bypass.NoCache = true
						plain, err := ont.AnswerOptions(q, bypass)
						if err != nil {
							t.Fatal(err)
						}
						if !cached.Equal(plain) {
							t.Fatalf("%s: cached answers diverge:\ncached:\n%s\nuncached:\n%s", q, cached, plain)
						}
					}

					check()
					rest := atoms[cut:]
					for len(rest) > 0 {
						n := 1 + rng.Intn(4)
						if n > len(rest) {
							n = len(rest)
						}
						if err := ont.AddFact(factSrc(rest[:n])); err != nil {
							t.Fatal(err)
						}
						rest = rest[n:]
						check()
					}
					st := ont.AnswerCacheStats()
					if st.Hits == 0 {
						t.Errorf("stats=%+v: the interleaving never hit the cache", st)
					}
				})
			}
		}
	}
}

// TestCacheHitAvoidsDivergenceAcrossMutationKinds asserts every mutation
// kind that can change answers makes the cache step aside.
func TestCacheHitAvoidsDivergenceAcrossMutationKinds(t *testing.T) {
	const prog = `
		parent(X, Y) -> ancestor(X, Y) .
		parent(X, Y), ancestor(Y, Z) -> ancestor(X, Z) .
		parent(ada, bob) .
		parent(bob, cyd) .
	`
	const q = `q(X, Y) :- ancestor(X, Y) .`
	steps := []struct {
		name   string
		mutate func(o *Ontology) error
	}{
		{"addFact", func(o *Ontology) error { return o.AddFact(`parent(cyd, dee) .`) }},
		{"deleteFact", func(o *Ontology) error { _, err := o.DeleteFact(`parent(ada, bob) .`); return err }},
		{"addRule", func(o *Ontology) error { return o.AddRule(`ancestor(X, Y) -> related(X, Y) .`) }},
		{"removeRule", func(o *Ontology) error { return o.RemoveRule("R2") }},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			ont := cachedOnt(t, prog)
			for i := 0; i < 2; i++ { // miss then hit: the view is warm
				if _, err := ont.AnswerOptions(q, Options{}); err != nil {
					t.Fatal(err)
				}
			}
			if err := step.mutate(ont); err != nil {
				t.Fatal(err)
			}
			got, err := ont.AnswerOptions(q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := ont.AnswerOptions(q, Options{NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("after %s, cached answers diverge:\ncached:\n%s\nuncached:\n%s", step.name, got, want)
			}
		})
	}
}

// viewQuery is the query whose answer view the contract tests watch.
const viewQuery = `q(X) :- person(X) .`

// warmView returns a chase-mode ontology whose published snapshot holds one
// answer view for viewQuery, proven warm by one hit.
func warmView(t *testing.T) *Ontology {
	t.Helper()
	ont := cachedOnt(t, universityMini)
	for i := 0; i < 2; i++ { // miss (building the materialization), then hit
		if _, err := ont.AnswerOptions(viewQuery, Options{Mode: ModeChase}); err != nil {
			t.Fatal(err)
		}
	}
	if st := ont.AnswerCacheStats(); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("stats=%+v: warm-up produced no cached view", st)
	}
	return ont
}

// readIsHit answers viewQuery once and reports whether the cache served it.
func readIsHit(t *testing.T, ont *Ontology) bool {
	t.Helper()
	before := ont.AnswerCacheStats()
	if _, err := ont.AnswerOptions(viewQuery, Options{Mode: ModeChase}); err != nil {
		t.Fatal(err)
	}
	after := ont.AnswerCacheStats()
	if after.Hits+after.Misses != before.Hits+before.Misses+1 {
		t.Fatalf("one read moved the counters %+v -> %+v", before, after)
	}
	return after.Hits > before.Hits
}

// TestEveryPublicationEmptiesViews pins the answer-view contract: a view
// belongs to the snapshot it was evaluated over, so every publication —
// each kind of mutation, and a canceled mutation that gives up the published
// materialization — leaves no view behind, and the next read is a miss. A
// write through Data() publishes nothing: it panics, and the view survives.
func TestEveryPublicationEmptiesViews(t *testing.T) {
	steps := []struct {
		name   string
		mutate func(o *Ontology) error
	}{
		{"addFact", func(o *Ontology) error { return o.AddFact(`teacher(newhire) .`) }},
		{"deleteFact", func(o *Ontology) error { _, err := o.DeleteFact(`student(alice) .`); return err }},
		{"addRule", func(o *Ontology) error { return o.AddRule(`teacher(X) -> staff(X) .`) }},
		{"removeRule", func(o *Ontology) error { return o.RemoveRule(o.Rules().Rules[0].Label) }},
		{"canceled", func(o *Ontology) error {
			// Polled once at entry, then canceled before the insert.
			if err := o.AddFactCtx(newTrippingCtx(1), `teacher(newhire) .`); !errors.Is(err, context.Canceled) {
				return fmt.Errorf("AddFactCtx under a tripping context = %v, want context.Canceled", err)
			}
			return nil
		}},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			ont := warmView(t)
			if err := step.mutate(ont); err != nil {
				t.Fatal(err)
			}
			if st := ont.AnswerCacheStats(); st.Entries != 0 {
				t.Fatalf("stats=%+v: a view outlived its snapshot", st)
			}
			if readIsHit(t, ont) {
				t.Fatal("the first read after the publication was a hit")
			}
		})
	}
	t.Run("dataWrite", func(t *testing.T) {
		ont := warmView(t)
		mustPanic(t, "Data().InsertAtom", func() {
			ont.Data().InsertAtom(logic.NewAtom("teacher", logic.NewConst("newhire")))
		})
		if st := ont.AnswerCacheStats(); st.Entries != 1 {
			t.Fatalf("stats=%+v: a refused write dropped the view", st)
		}
		if !readIsHit(t, ont) {
			t.Fatal("the first read after a refused write missed")
		}
	})
}

// TestUnchangedSnapshotKeepsViews is the other half of the contract: a
// mutation that changes nothing (facts already present or already absent)
// or is rejected publishes nothing, so the views stay and the next read hits.
func TestUnchangedSnapshotKeepsViews(t *testing.T) {
	steps := []struct {
		name    string
		mutate  func(o *Ontology) error
		wantErr bool
	}{
		{"duplicateAddFact", func(o *Ontology) error { return o.AddFact(`student(alice) . teacher(bob) .`) }, false},
		{"absentDeleteFact", func(o *Ontology) error { _, err := o.DeleteFact(`student(nobody) .`); return err }, false},
		{"rejectedAddFact", func(o *Ontology) error { return o.AddFact(`student(alice, bob) .`) }, true},
		{"rejectedRemoveRule", func(o *Ontology) error { return o.RemoveRule("no-such-rule") }, true},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			ont := warmView(t)
			epoch := ont.MaterializationStats().Epoch
			if err := step.mutate(ont); (err != nil) != step.wantErr {
				t.Fatalf("err = %v, want error: %v", err, step.wantErr)
			}
			if st := ont.AnswerCacheStats(); st.Entries != 1 {
				t.Fatalf("stats=%+v: an unchanged snapshot lost its view", st)
			}
			if e := ont.MaterializationStats().Epoch; e != epoch {
				t.Errorf("materialization epoch %d -> %d: something was published", epoch, e)
			}
			if !readIsHit(t, ont) {
				t.Fatal("the first read after the mutation missed")
			}
		})
	}
}

// TestAnswerStreamMatchesAnswer asserts the read path's pull iterator
// (answerStream, under AnswerEach) yields exactly the certain answers — cold
// (evaluating), warm (view replay) and with a limit (a prefix of the
// complete set).
func TestAnswerStreamMatchesAnswer(t *testing.T) {
	ont := cachedOnt(t, universityMini)
	const q = `q(X) :- person(X) .`
	want, err := ont.AnswerOptions(q, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}

	drain := func(opts Options) []Answer {
		t.Helper()
		s, err := ont.openAnswer(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		var out []Answer
		for {
			a, ok, err := s.next(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return out
			}
			out = append(out, a)
		}
	}

	asSet := func(tuples []Answer) *Answers {
		set := eval.NewAnswers(1)
		for _, a := range tuples {
			set.Add(a)
		}
		return set
	}

	cold := drain(Options{})
	if !asSet(cold).Equal(want) {
		t.Fatalf("cold stream yielded %d answers, want %d", len(cold), want.Len())
	}
	if st := ont.AnswerCacheStats(); st.Entries == 0 {
		t.Fatalf("stats=%+v: a completed stream did not publish a view", st)
	}
	warm := drain(Options{})
	if !asSet(warm).Equal(want) {
		t.Fatal("warm (view-replay) stream diverges from the answer set")
	}
	if st := ont.AnswerCacheStats(); st.Hits == 0 {
		t.Fatalf("stats=%+v: warm stream did not hit the view", st)
	}
	limited := drain(Options{Limit: 1})
	if len(limited) != 1 {
		t.Fatalf("limit-1 stream yielded %d answers", len(limited))
	}
	for _, a := range limited {
		if !want.Contains(a) {
			t.Fatalf("limited stream yielded a non-answer %v", a)
		}
	}
}

// TestCacheConcurrentAnswersRaceClean hammers one cached ontology from
// readers and a writer at once; under -race this is the cache's lock-free
// read-path soundness check, and every read must match an uncached read.
func TestCacheConcurrentAnswersRaceClean(t *testing.T) {
	ont := cachedOnt(t, universityMini)
	const q = `q(X) :- person(X) .`
	opts := Options{Mode: ModeChase}
	if _, err := ont.AnswerOptions(q, opts); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				cached, err := ont.AnswerOptions(q, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if cached.Len() == 0 {
					t.Error("cached read returned no answers")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := ont.AddFact(fmt.Sprintf("teacher(p%d) .", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	got, err := ont.AnswerOptions(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ont.AnswerOptions(q, Options{Mode: ModeChase, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("after concurrent churn, cached answers diverge:\ncached:\n%s\nuncached:\n%s", got, want)
	}
}

// TestCacheEvictionUnderTinyBudget asserts the budget is honored: with room
// for roughly one view, distinct queries evict each other instead of
// growing without bound.
func TestCacheEvictionUnderTinyBudget(t *testing.T) {
	ont := MustParse(universityMini)
	ont.SetAnswerCacheBudget(600)
	queries := []string{
		`q(X) :- person(X) .`,
		`q(X, Y) :- hasParent(X, Y) .`,
		`q(X) :- student(X) .`,
	}
	for _, q := range queries {
		if _, err := ont.AnswerOptions(q, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st := ont.AnswerCacheStats()
	if st.Bytes > 600 {
		t.Errorf("stats=%+v: cache exceeds its 600-byte budget", st)
	}
	if st.Entries >= len(queries) {
		t.Errorf("stats=%+v: no eviction under a budget sized for one view", st)
	}
}

// TestSetAnswerCacheBudgetDisableDropsViews asserts turning the cache off
// reclaims it and answers keep flowing uncached.
func TestSetAnswerCacheBudgetDisableDropsViews(t *testing.T) {
	ont := cachedOnt(t, universityMini)
	const q = `q(X) :- person(X) .`
	if _, err := ont.AnswerOptions(q, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := ont.AnswerCacheStats(); st.Entries == 0 {
		t.Fatalf("stats=%+v: no view cached before disabling", st)
	}
	ont.SetAnswerCacheBudget(0)
	if st := ont.AnswerCacheStats(); st.Entries != 0 {
		t.Fatalf("stats=%+v: views survived disabling the cache", st)
	}
	hitsBefore := ont.AnswerCacheStats().Hits
	if _, err := ont.AnswerOptions(q, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := ont.AnswerCacheStats(); st.Hits != hitsBefore {
		t.Fatalf("stats=%+v: a disabled cache still served a hit", st)
	}
}

// TestRuleMutationLeavesNoStaleRewriteView is the regression for the stale
// rewrite-mode view: a reader that rewrote the query under the old rule set
// and finished evaluating after an AddRule published used to pass the fill's
// currency check (a rule mutation did not republish the base data) and file
// its answer under the new generation, where it stayed — one certain answer
// short — until the next mutation. A view is now filed in the cache of the
// snapshot whose rules and base produced it, so a reader that loads the
// post-mutation snapshot cannot see it. The rule count only has to make the
// first rewriting (a few milliseconds) outlast the 0–2 ms jitter of the
// AddRule, so that the looping readers are mid-rewrite when it lands: with 60
// rules the pre-snapshot code came out stale in 96 of 100 iterations, with
// 150 in 99 of 100 at six times the running time.
func TestRuleMutationLeavesNoStaleRewriteView(t *testing.T) {
	const staleViewRules = 60
	var src strings.Builder
	for i := 0; i < staleViewRules; i++ {
		fmt.Fprintf(&src, "r%d(X) -> p(X) .\nr%d(a%d) .\n", i, i, i)
	}
	src.WriteString("d(z) .\n")
	const q = `q(X) :- p(X) .`
	iterations := 100
	if testing.Short() {
		iterations = 10
	}
	rng := rand.New(rand.NewSource(14))
	for it := 0; it < iterations; it++ {
		ont := cachedOnt(t, src.String())
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := ont.AnswerMode(q, ModeRewrite); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(rng.Intn(2001)) * time.Microsecond)
		if err := ont.AddRule(`d(X) -> p(X) .`); err != nil {
			t.Fatal(err)
		}
		// A reader caught mid-rewrite finishes its loop iteration — and its
		// cache fill — before it sees stop.
		close(stop)
		wg.Wait()
		cached, err := ont.AnswerMode(q, ModeRewrite)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := ont.AnswerOptions(q, Options{Mode: ModeRewrite, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if !cached.Equal(fresh) || fresh.Len() != staleViewRules+1 {
			t.Fatalf("iteration %d: cached answer has %d tuples, uncached %d, want %d after the rule mutation",
				it, cached.Len(), fresh.Len(), staleViewRules+1)
		}
	}
}

package repro

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/logic"
)

// TestPropertyAddDeleteFactIncrementalEqualsScratch is the bidirectional
// maintenance-correctness property at the public API: over seeded random
// ontologies, a random interleaving of AddFact batches, DeleteFact batches
// and chase-mode Answer calls — so the published materialization is
// repeatedly extended and DRed-repaired rather than rebuilt — must end with
// exactly the answers of an ontology chased from scratch on the surviving
// facts. Sequential and parallel, race-clean under -race.
func TestPropertyAddDeleteFactIncrementalEqualsScratch(t *testing.T) {
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain, datagen.FamilySticky}
	for _, fam := range families {
		for seed := int64(1); seed <= 5; seed++ {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v/seed=%d/par=%d", fam, seed, par), func(t *testing.T) {
					set := datagen.Rules(datagen.Config{Family: fam, Rules: 5, Seed: seed})
					data := datagen.Instance(set, 20, 8, seed)
					atoms := data.Atoms()

					rng := rand.New(rand.NewSource(seed * 15485863))
					rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })

					// Start with two thirds of the data; the rest is the
					// insertion reserve. Track the live base in a mirror.
					cut := 2 * len(atoms) / 3
					live := make(map[string]logic.Atom)
					for _, a := range atoms[:cut] {
						live[a.Key()] = a
					}
					reserve := atoms[cut:]

					ont, err := Parse(set.String() + "\n" + factSrc(atoms[:cut]))
					if err != nil {
						t.Fatal(err)
					}
					opts := Options{Mode: ModeChase, Parallelism: par}
					queries := atomicQueries(t, ont)
					if _, err := ont.AnswerOptions(queries[0], opts); err != nil {
						t.Skipf("initial chase over budget: %v", err)
					}

					for step := 0; step < 30; step++ {
						switch {
						case rng.Intn(2) == 0 && len(reserve) > 0: // insert
							n := 1 + rng.Intn(3)
							if n > len(reserve) {
								n = len(reserve)
							}
							if err := ont.AddFact(factSrc(reserve[:n])); err != nil {
								t.Fatal(err)
							}
							for _, a := range reserve[:n] {
								live[a.Key()] = a
							}
							reserve = reserve[n:]
						case len(live) > 0: // delete
							var victims []logic.Atom
							want := 1 + rng.Intn(3)
							for _, a := range live {
								victims = append(victims, a)
								if len(victims) == want {
									break
								}
							}
							n, err := ont.DeleteFact(factSrc(victims))
							if err != nil {
								t.Fatal(err)
							}
							if n != len(victims) {
								t.Fatalf("DeleteFact removed %d of %d live facts", n, len(victims))
							}
							for _, a := range victims {
								delete(live, a.Key())
							}
						}
						if rng.Intn(2) == 0 {
							if _, err := ont.AnswerOptions(queries[rng.Intn(len(queries))], opts); err != nil {
								t.Fatal(err)
							}
						}
					}

					var final []logic.Atom
					for _, a := range live {
						final = append(final, a)
					}
					ontScratch, err := Parse(set.String() + "\n" + factSrc(final))
					if err != nil {
						t.Fatal(err)
					}
					for _, q := range queries {
						inc, errInc := ont.AnswerOptions(q, opts)
						scr, errScr := ontScratch.AnswerOptions(q, opts)
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
				})
			}
		}
	}
}

// TestDeleteFactWorkProportionalToClosure asserts, through the public
// counters, that DeleteFact repairs the materialization with work
// proportional to the deleted closure: the repair's steps are a handful
// while the initial build's were hundreds, and the answers lose exactly the
// deleted student.
func TestDeleteFactWorkProportionalToClosure(t *testing.T) {
	ont := MustParse(datagen.University().String() + "\n" + datagen.UniversityData(16, 1).String())
	const q = `q(X) :- person(X) .`
	if err := ont.AddFact(`undergraduateStudent(doomed) . undergraduateStudent(primer) .`); err != nil {
		t.Fatal(err)
	}
	// Provenance recording is lazy: the first DeleteFact drops the cache and
	// flips it on, so prime with a throwaway deletion before measuring.
	if _, err := ont.AnswerMode(q, ModeChase); err != nil {
		t.Fatal(err)
	}
	if n, err := ont.DeleteFact(`undergraduateStudent(primer) .`); err != nil || n != 1 {
		t.Fatalf("priming delete: n=%d err=%v", n, err)
	}
	if st := ont.MaterializationStats(); st.Cached {
		t.Fatalf("first delete must drop the provenance-less cache: %+v", st)
	}
	before, err := ont.AnswerMode(q, ModeChase)
	if err != nil {
		t.Fatal(err)
	}
	s0 := ont.MaterializationStats()
	if s0.LastSteps < 100 {
		t.Fatalf("initial build fired %d steps; workload too small for the proportionality claim", s0.LastSteps)
	}

	n, err := ont.DeleteFact(`undergraduateStudent(doomed) .`)
	if err != nil || n != 1 {
		t.Fatalf("DeleteFact: n=%d err=%v", n, err)
	}
	after, err := ont.AnswerMode(q, ModeChase)
	if err != nil {
		t.Fatal(err)
	}
	s1 := ont.MaterializationStats()
	if !s1.Cached || s1.Epoch != s0.Epoch+1 {
		t.Errorf("stats after delete = %+v, want epoch bump on the repaired cache", s1)
	}
	if s1.LastSteps > 10 {
		t.Errorf("repair LastSteps = %d, want a handful (initial build: %d)", s1.LastSteps, s0.LastSteps)
	}
	if after.Len() != before.Len()-1 {
		t.Errorf("answers: %d -> %d, want exactly one person fewer", before.Len(), after.Len())
	}
	if after.Contains([]logic.Term{logic.NewConst("doomed")}) {
		t.Error("person(doomed) must be gone after DeleteFact")
	}

	// Deleting an absent fact is a free no-op: no epoch bump, same answers.
	if n, err := ont.DeleteFact(`undergraduateStudent(ghost) .`); err != nil || n != 0 {
		t.Fatalf("absent delete: n=%d err=%v", n, err)
	}
	if s2 := ont.MaterializationStats(); s2.Epoch != s1.Epoch {
		t.Errorf("absent delete bumped the epoch: %+v", s2)
	}
}

// TestDeleteFactKeepsDerivableFacts: deleting a base fact that is also
// derivable from the surviving base must remove the base copy but keep the
// fact in the certain answers — the DRed base-guard plus re-derivation.
func TestDeleteFactKeepsDerivableFacts(t *testing.T) {
	ont := MustParse(`
student(X) -> person(X) .
student(alice) .
person(alice) .
person(bob) .
student(primer) .
`)
	const q = `q(X) :- person(X) .`
	if _, err := ont.AnswerMode(q, ModeChase); err != nil {
		t.Fatal(err)
	}
	// Prime the lazy provenance recording so the assertions below exercise
	// the DRed repair path, not the drop-and-rebuild of a first deletion.
	if n, err := ont.DeleteFact(`student(primer) .`); err != nil || n != 1 {
		t.Fatalf("priming delete: n=%d err=%v", n, err)
	}
	if _, err := ont.AnswerMode(q, ModeChase); err != nil {
		t.Fatal(err)
	}
	// person(alice) is base AND derivable from student(alice): deleting the
	// base copy must not remove it from the expansion.
	if n, err := ont.DeleteFact(`person(alice) .`); err != nil || n != 1 {
		t.Fatalf("delete person(alice): n=%d err=%v", n, err)
	}
	ans, err := ont.AnswerMode(q, ModeChase)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Contains([]logic.Term{logic.NewConst("alice")}) {
		t.Errorf("person(alice) must survive via student(alice):\n%s", ans)
	}
	// Deleting the supporting student fact now removes it for good.
	if n, err := ont.DeleteFact(`student(alice) .`); err != nil || n != 1 {
		t.Fatalf("delete student(alice): n=%d err=%v", n, err)
	}
	ans, err = ont.AnswerMode(q, ModeChase)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Contains([]logic.Term{logic.NewConst("alice")}) || ans.Len() != 1 {
		t.Errorf("want only person(bob) left:\n%s", ans)
	}
}

// TestEqualSizeOutOfBandMutationDetected: the balanced insert+delete pair
// through Data() that once kept Data().Size() constant while changing its
// contents — and fooled a size-based staleness check into serving stale
// answers — cannot happen at all: the published base is frozen, so both
// writes panic, and answers in both modes stay what they were.
func TestEqualSizeOutOfBandMutationDetected(t *testing.T) {
	ont := MustParse(`
student(X) -> person(X) .
student(alice) .
student(bob) .
`)
	const q = `q(X) :- person(X) .`
	if _, err := ont.AnswerMode(q, ModeChase); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "Data().Remove", func() { ont.Data().Remove(logic.NewAtom("student", logic.NewConst("bob"))) })
	mustPanic(t, "Data().InsertAtom", func() { ont.Data().InsertAtom(logic.NewAtom("student", logic.NewConst("carol"))) })
	for _, mode := range []AnswerMode{ModeChase, ModeRewrite} {
		ans, err := ont.AnswerMode(q, mode)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Len() != 2 || !ans.Contains([]logic.Term{logic.NewConst("bob")}) || ans.Contains([]logic.Term{logic.NewConst("carol")}) {
			t.Errorf("mode %v: answers changed after the refused Data() writes:\n%s", mode, ans)
		}
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestAnswersDoNotBlockBehindWriters is the stall regression: reads in both
// modes issued while a genuinely in-flight, multi-hundred-millisecond
// AddFact — then DeleteFact — is chasing must finish while the mutation is
// still running, and must return exactly the pre-mutation answers. A mutation
// edits forks of the published base and materialization, so the snapshot a
// reader loads stays intact and current until the mutation publishes; before
// the single snapshot, the mutation edited the canonical data in place, every
// read saw the mutation counter ahead of the published snapshots, and queued
// on the writer lock until the mutation was over.
func TestAnswersDoNotBlockBehindWriters(t *testing.T) {
	ont := New(datagen.University(), datagen.UniversityData(100, 1))
	const q = `q(X) :- person(X) .`
	modes := []AnswerMode{ModeChase, ModeRewrite}
	// Prime provenance recording so the deletion below repairs the published
	// materialization incrementally instead of dropping it.
	if err := ont.AddFact(`undergraduateStudent(primer) .`); err != nil {
		t.Fatal(err)
	}
	if n, err := ont.DeleteFact(`undergraduateStudent(primer) .`); err != nil || n != 1 {
		t.Fatalf("priming delete: n=%d err=%v", n, err)
	}
	var batch strings.Builder
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&batch, "graduateStudent(late%d) . takesCourse(late%d, course%d_%d) .\n", i, i, i%100, i%3)
	}
	answers := func() map[AnswerMode]*Answers {
		out := make(map[AnswerMode]*Answers)
		for _, mode := range modes {
			ans, err := ont.AnswerMode(q, mode)
			if err != nil {
				t.Fatal(err)
			}
			out[mode] = ans
		}
		return out
	}

	during := func(name string, mutate func() error) {
		before := answers()
		done := make(chan error, 1)
		start := time.Now()
		var took time.Duration
		go func() {
			err := mutate()
			took = time.Since(start)
			done <- err
		}()
		inFlight := make(map[AnswerMode]int)
		var slowest time.Duration
		for i, running := 0, true; running; i++ {
			mode := modes[i%len(modes)]
			t0 := time.Now()
			ans, err := ont.AnswerMode(q, mode)
			if err != nil {
				t.Fatalf("%s: read in mode %d: %v", name, mode, err)
			}
			slowest = max(slowest, time.Since(t0))
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				running = false // this read straddled the publication: either answer is right
			default:
				inFlight[mode]++
				if !ans.Equal(before[mode]) {
					t.Fatalf("%s: mode %d read %d answers during the mutation, want the %d pre-mutation ones",
						name, mode, ans.Len(), before[mode].Len())
				}
			}
		}
		t.Logf("%s took %v; reads finished in flight: chase %d, rewrite %d; slowest read %v",
			name, took, inFlight[ModeChase], inFlight[ModeRewrite], slowest)
		if took < 50*time.Millisecond {
			t.Skipf("%s took only %v: too fast to observe readers beside it", name, took)
		}
		for _, mode := range modes {
			if inFlight[mode] < 3 {
				t.Errorf("%s: only %d reads in mode %d finished while it ran", name, inFlight[mode], mode)
			}
		}
		if slowest > took/2 {
			t.Errorf("%s: a read took %v of the mutation's %v: it queued behind the writer", name, slowest, took)
		}
		for mode, ans := range answers() {
			if ans.Equal(before[mode]) {
				t.Errorf("%s: mode %d answers unchanged after the mutation", name, mode)
			}
		}
	}
	during("AddFact", func() error { return ont.AddFact(batch.String()) })
	during("DeleteFact", func() error {
		n, err := ont.DeleteFact(batch.String())
		if err == nil && n != 6000 {
			err = fmt.Errorf("removed %d facts, want 6000", n)
		}
		return err
	})
}

// TestConcurrentAnswerAddDelete hammers the snapshot seam from both
// directions: readers answer in chase mode over published snapshots while
// one writer streams AddFact deltas and another streams DeleteFact repairs.
// Under -race this is the coordination test; afterwards the answers must
// equal a from-scratch chase of the final data.
func TestConcurrentAnswerAddDelete(t *testing.T) {
	base := datagen.University().String() + "\n" + datagen.UniversityData(2, 1).String()
	ont := MustParse(base)
	const q = `q(X) :- person(X) .`
	if _, err := ont.AnswerMode(q, ModeChase); err != nil {
		t.Fatal(err)
	}

	const ops = 15
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < ops; i++ {
			if err := ont.AddFact(fmt.Sprintf("graduateStudent(g%d) .", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < ops; i++ {
			if err := ont.AddFact(fmt.Sprintf("undergraduateStudent(u%d) .", i)); err != nil {
				t.Error(err)
				return
			}
			if _, err := ont.DeleteFact(fmt.Sprintf("undergraduateStudent(u%d) .", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < ops; i++ {
			if _, err := ont.AnswerOptions(q, Options{Mode: ModeChase, Parallelism: 2}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	scratch := MustParse(base)
	for i := 0; i < ops; i++ {
		if err := scratch.AddFact(fmt.Sprintf("graduateStudent(g%d) .", i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ont.AnswerMode(q, ModeChase)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scratch.AnswerMode(q, ModeChase)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("concurrent add/delete maintenance diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

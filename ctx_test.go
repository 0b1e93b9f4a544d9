package repro

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
)

// trippingCtx is a context whose Err starts reporting context.Canceled after
// the first `trips` polls. Done returns a non-nil (never-closed) channel so
// the engines arm their amortized Err polling instead of disarming; nothing
// in the engine blocks on Done, so the channel never needs to close. Sweeping
// `trips` drives cancellation into every poll site of a mutation: the entry
// check, the chase round barrier, the per-worker firing loop, the DRed
// over-deletion and re-derivation scans, and the join executor.
type trippingCtx struct {
	done  chan struct{}
	polls atomic.Int64
	trips int64
}

func newTrippingCtx(trips int64) *trippingCtx {
	return &trippingCtx{done: make(chan struct{}), trips: trips}
}

func (c *trippingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *trippingCtx) Done() <-chan struct{}       { return c.done }
func (c *trippingCtx) Value(key any) any           { return nil }
func (c *trippingCtx) Err() error {
	if c.polls.Add(1) > c.trips {
		return context.Canceled
	}
	return nil
}

// chainFamilyOntology builds parent/ancestor over a parent chain of length n
// — every mutation below touches the recursive materialization.
func chainFamilyOntology(t *testing.T, n int) *Ontology {
	t.Helper()
	src := "parent(X, Y) -> ancestor(X, Y) .\nparent(X, Y), ancestor(Y, Z) -> ancestor(X, Z) .\n"
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("parent(p%d, p%d) .\n", i, i+1)
	}
	ont, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return ont
}

func answersFor(t *testing.T, ont *Ontology, queries []string, opts Options) []*Answers {
	t.Helper()
	out := make([]*Answers, len(queries))
	for i, q := range queries {
		ans, err := ont.AnswerOptions(q, opts)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out[i] = ans
	}
	return out
}

// TestCanceledMutationLeavesSnapshotUntouched is the mutation-rollback
// regression test: a mutation whose context cancels at ANY point before the
// publish phase must leave the ontology answering exactly as before — same
// base facts, same published materialization — and must leave the derivation
// provenance intact, so that redoing the mutation for real afterwards still
// agrees with an ontology built from scratch on the final state. The
// cancellation point is swept (0, 1, 2, 4, ... context polls) until the
// mutation runs to completion, so every abort site in the pipeline is hit.
func TestCanceledMutationLeavesSnapshotUntouched(t *testing.T) {
	const chain = 24
	queries := []string{
		"q(X, Y) :- ancestor(X, Y) .",
		"q(X, Y) :- parent(X, Y) .",
		"q(X, Y) :- related(X, Y) .",
	}
	opts := Options{Mode: ModeChase}
	muts := []struct {
		name  string
		apply func(ont *Ontology, ctx context.Context) error
	}{
		{"add-fact", func(o *Ontology, ctx context.Context) error {
			return o.AddFactCtx(ctx, "parent(n0, n1) . parent(n1, n2) . parent(p24, n0) .")
		}},
		{"delete-fact", func(o *Ontology, ctx context.Context) error {
			n, err := o.DeleteFactCtx(ctx, "parent(p10, p11) .")
			if err == nil && n != 1 {
				return fmt.Errorf("deleted %d facts, want 1", n)
			}
			return err
		}},
		{"add-rule", func(o *Ontology, ctx context.Context) error {
			return o.AddRuleCtx(ctx, "ancestor(X, Y) -> related(X, Y) .")
		}},
		{"remove-rule", func(o *Ontology, ctx context.Context) error {
			return o.RemoveRuleCtx(ctx, o.Rules().Rules[1].Label)
		}},
	}
	for _, m := range muts {
		t.Run(m.name, func(t *testing.T) {
			canceledRuns := 0
			for k := int64(0); ; k = max(1, k*2) {
				if k > 1<<22 {
					t.Fatalf("mutation still canceling after %d polls", k)
				}
				ont := chainFamilyOntology(t, chain)
				before := answersFor(t, ont, queries, opts) // publishes the materialization
				err := m.apply(ont, newTrippingCtx(k))
				if err == nil {
					// The sweep reached a budget large enough for the whole
					// mutation: every earlier poll site has been exercised.
					if canceledRuns == 0 {
						t.Fatal("mutation never canceled, even with an immediately-tripping context")
					}
					t.Logf("%d canceled attempts before k=%d polls let the mutation finish", canceledRuns, k)
					return
				}
				canceledRuns++
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("k=%d: err = %v, want context.Canceled", k, err)
				}
				after := answersFor(t, ont, queries, opts)
				for i := range queries {
					if !before[i].Equal(after[i]) {
						t.Fatalf("k=%d: answers to %s changed across a canceled mutation:\nbefore:\n%s\nafter:\n%s",
							k, queries[i], before[i], after[i])
					}
				}
				// Provenance intact: redo the mutation for real and require
				// agreement with a scratch ontology on the resulting state.
				if err := m.apply(ont, context.Background()); err != nil {
					t.Fatalf("k=%d: redo after rollback: %v", k, err)
				}
				scratch, err := Parse(ont.Rules().String() + "\n" + factSrc(ont.Data().Atoms()))
				if err != nil {
					t.Fatal(err)
				}
				got := answersFor(t, ont, queries, opts)
				want := answersFor(t, scratch, queries, opts)
				for i := range queries {
					if !got[i].Equal(want[i]) {
						t.Fatalf("k=%d: after redo, %s diverges from scratch:\nincremental:\n%s\nscratch:\n%s",
							k, queries[i], got[i], want[i])
					}
				}
			}
		})
	}
}

// TestAnswerDeadlineExceededPromptly is the serving acceptance criterion at
// the library level: a 1ms-deadline query that forces a materialization-scale
// chase must return context.DeadlineExceeded promptly (not after the full
// chase), and the aborted build must not corrupt the ontology — a follow-up
// query without a deadline gets the complete answer set.
func TestAnswerDeadlineExceededPromptly(t *testing.T) {
	const departments = 32
	ont := New(datagen.University(), datagen.UniversityData(departments, 1))
	opts := Options{Mode: ModeChase, Parallelism: 4}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ont.AnswerCtx(ctx, "q(X) :- person(X) .", opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("took %v to honor a 1ms deadline", elapsed)
	}

	ans, err := ont.AnswerOptions("q(X) :- person(X) .", opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := departments * 13; ans.Len() != want {
		t.Fatalf("after aborted build: %d persons, want %d", ans.Len(), want)
	}
}

package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/storage"
)

// randomWorkload builds a seeded random instance and query with enough
// shared variables and constants to exercise multi-column joins (atoms with
// two or more bound columns, where the planner picks one index to probe).
func randomWorkload(rng *rand.Rand) (*storage.Instance, *query.UCQ) {
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

	ins := storage.NewInstance()
	for _, p := range preds {
		for k := 0; k < 10+rng.Intn(30); k++ {
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
		n := 1 + rng.Intn(4)
		body := make([]logic.Atom, n)
		for i := range body {
			p := preds[rng.Intn(len(preds))]
			args := make([]logic.Term, p.arity)
			for j := range args {
				if rng.Intn(5) == 0 {
					args[j] = consts[rng.Intn(len(consts))]
				} else {
					args[j] = vars[rng.Intn(len(vars))]
				}
			}
			body[i] = logic.NewAtom(p.name, args...)
		}
		// Every disjunct must share the UCQ arity; pad short variable sets by
		// repeating (or with a constant for the all-ground case).
		bodyVars := logic.VarsOf(body)
		head := make([]logic.Term, 2)
		for k := range head {
			if len(bodyVars) > 0 {
				head[k] = bodyVars[k%len(bodyVars)]
			} else {
				head[k] = consts[0]
			}
		}
		cq, err := query.New(logic.NewAtom("q", head...), body)
		if err != nil {
			continue
		}
		cqs = append(cqs, cq)
	}
	u, err := query.NewUCQ(cqs...)
	if err != nil {
		panic(err)
	}
	return ins, u
}

// collectStream drains a Stream into an ordered tuple list.
func collectStream(t *testing.T, plans []*Plan, ins *storage.Instance, opts Options) []storage.Tuple {
	t.Helper()
	s := NewStream(plans, 2, ins, opts) // randomWorkload heads are binary
	var out []storage.Tuple
	for {
		tp, ok, err := s.Next(context.Background())
		if err != nil {
			t.Error(err)
		}
		if err != nil || !ok {
			return out
		}
		out = append(out, tp)
	}
}

// TestStreamingProperties is the ISSUE property suite for the iterator
// executor, over seeded random instances and UCQs:
//
//   - streamed ≡ materialized: the answers Stream.Next emits are exactly the
//     set RunPlansCtx materializes;
//   - limit-k ≡ prefix: the k-limited stream is exactly the first
//     min(k, n) tuples of the unlimited (deterministic, sequential) stream.
func TestStreamingProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		ins, u := randomWorkload(rng)
		arity := u.Arity()

		plans := CompileUCQ(u, ins, PlannerDefault, JoinDefault)
		full := RunPlans(plans, arity, ins, Options{})

		streamed := collectStream(t, plans, ins, Options{})
		set := NewAnswers(arity)
		for _, tp := range streamed {
			set.Add(tp)
		}
		if !set.Equal(full) {
			t.Fatalf("trial %d: streamed set differs from materialized\nstreamed: %v\nfull: %v\nquery: %v",
				trial, set, full, u)
		}
		if len(streamed) != full.Len() {
			t.Fatalf("trial %d: stream emitted %d tuples, %d distinct expected (dedup leak)",
				trial, len(streamed), full.Len())
		}

		k := 1 + rng.Intn(full.Len()+2) // 0 means unlimited, so start at 1
		limited := collectStream(t, plans, ins, Options{Limit: k})
		want := min(k, full.Len())
		if len(limited) != want {
			t.Fatalf("trial %d: limit %d emitted %d tuples, want %d",
				trial, k, len(limited), want)
		}
		for i, tp := range limited {
			if tp.Key() != streamed[i].Key() {
				t.Fatalf("trial %d: limit %d row %d = %v, want prefix of unlimited stream (%v)",
					trial, k, i, tp, streamed[i])
			}
		}
	}
}

// TestStreamConcurrentRunners runs many streaming iterators over one shared
// plan set and instance concurrently — cursors and register files are
// per-Runner state, so concurrent streams over shared immutable plans must
// be race-clean (this test earns its keep under -race).
func TestStreamConcurrentRunners(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ins, u := randomWorkload(rng)
	arity := u.Arity()
	plans := CompileUCQ(u, ins, PlannerDefault, JoinDefault)
	want := RunPlans(plans, arity, ins, Options{})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := NewAnswers(arity)
			for _, tp := range collectStream(t, plans, ins, Options{}) {
				got.Add(tp)
			}
			if !got.Equal(want) {
				t.Errorf("concurrent stream diverged: %d answers, want %d", got.Len(), want.Len())
			}
		}()
	}
	wg.Wait()
}

// TestStreamNoticesCancellation is the regression test for the dense-stream
// cancellation bug: every row of a scan costs one candidate, and Next used to
// re-arm the runner (restarting its amortized poll counter) per row, so the
// poll never fired and a canceled stream ran to completion. After cancel the
// stream must fail within two poll intervals, and stay failed.
func TestStreamNoticesCancellation(t *testing.T) {
	const facts = 20000
	ins := storage.NewInstance()
	for i := 0; i < facts; i++ {
		if err := ins.InsertAtom(at("p", c(fmt.Sprintf("c%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	u := query.MustNewUCQ(query.MustNew(at("q", v("X")), []logic.Atom{at("p", v("X"))}))
	s := NewStream(CompileUCQ(u, ins, PlannerDefault, JoinDefault), 1, ins, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for rows := 1; ; rows++ {
		_, ok, err := s.Next(ctx)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("row %d: err = %v, want context.Canceled", rows, err)
			}
			break
		}
		if !ok {
			t.Fatalf("stream ran to completion (%d rows) without noticing the cancellation", rows-1)
		}
		if rows == 10 {
			cancel()
		}
		if rows > 10+2*(cancelCheckMask+1) {
			t.Fatalf("no error %d rows after cancel", rows-10)
		}
	}
	if _, ok, err := s.Next(context.Background()); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("a canceled stream resumed: ok=%v err=%v", ok, err)
	}
}

package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/chase"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// LoadCSV bulk-loads tuples for one predicate from CSV data into the
// ontology's database (every record one tuple of constants). The load is
// atomic: on a malformed CSV or an arity conflict nothing is inserted. Like
// AddFact, the published snapshots are maintained incrementally and
// copy-on-write — the genuinely new tuples become the delta of a resumed
// chase, and concurrent readers keep the previous snapshot meanwhile.
func (o *Ontology) LoadCSV(pred string, r io.Reader) (added int, err error) {
	return o.LoadCSVCtx(context.Background(), pred, r)
}

// LoadCSVCtx is LoadCSV under a cancellation context: a load canceled
// mid-chase publishes nothing, so the bulk load either lands in full or
// observably never happened (see AddFactCtx).
func (o *Ontology) LoadCSVCtx(ctx context.Context, pred string, r io.Reader) (added int, err error) {
	// Stage into a private instance first so parse errors leave the
	// ontology untouched and the new facts are known for the delta; the
	// batch then flows through the unified mutation pipeline, whose staging
	// re-validates arities against the published expansion so a conflict
	// leaves data and snapshots untouched.
	staged := storage.NewInstance()
	if _, err := staged.LoadCSV(pred, r); err != nil {
		return 0, err
	}
	rel := staged.Relation(pred)
	if rel == nil {
		return 0, nil // empty CSV
	}
	atoms := make([]logic.Atom, 0, rel.Len())
	for _, t := range rel.Tuples() {
		atoms = append(atoms, logic.Atom{Pred: pred, Args: t})
	}
	res, err := o.mutate(ctx, mutation{addFacts: atoms})
	return res.addedFacts, err
}

// Approx is the outcome of approximate query answering (paper §7: what to
// do when the rule set cannot be certified FO-rewritable, or is not).
type Approx struct {
	// Answers is a sound under-approximation of cert(q, P, D): every tuple
	// is a certain answer; some certain answers may be missing unless
	// Exact is true.
	Answers *Answers
	// Exact reports whether the approximation is known to be complete —
	// true when either expansion reached its fixpoint within budget.
	Exact bool
	// RewritingComplete and ChaseTerminated tell which side certified
	// exactness (both may be true).
	RewritingComplete bool
	ChaseTerminated   bool
	// QueryRewritable reports per-query FO-rewritability: even over a rule
	// set that no class test certifies, this particular query's rewriting
	// may reach a fixpoint — the paper's "query pattern" idea of tackling
	// case (ii)/(iii) query by query.
	QueryRewritable bool
}

// ApproxOptions bounds the approximation work.
type ApproxOptions struct {
	// MaxCQs bounds the rewriting pool (0 = default 2000).
	MaxCQs int
	// MaxChaseSteps bounds the chase (0 = default 50000).
	MaxChaseSteps int
}

func (a ApproxOptions) withDefaults() ApproxOptions {
	if a.MaxCQs == 0 {
		a.MaxCQs = 2000
	}
	if a.MaxChaseSteps == 0 {
		a.MaxChaseSteps = 50000
	}
	return a
}

// AnswerApprox computes certain answers with both expansion techniques
// under budgets and unions the (individually sound) results. Useful when
// Classify cannot certify the rule set: if the query's own rewriting
// reaches a fixpoint, or the chase terminates, the result is exact and
// flagged as such; otherwise it is a sound under-approximation.
func (o *Ontology) AnswerApprox(querySrc string, opts ApproxOptions) (*Approx, error) {
	opts = opts.withDefaults()
	q, err := ParseQuery(querySrc)
	if err != nil {
		return nil, err
	}

	s := o.snap.Load()
	rw := rewrite.Rewrite(q, s.rules, rewrite.Options{MaxCQs: opts.MaxCQs})
	if rw.Complete {
		// Exact via rewriting; evaluating over the snapshot's base data
		// suffices and the chase need not run at all. No lock held.
		return &Approx{
			Answers:           s.evalUCQ(rw.UCQ, false, eval.Options{FilterNulls: true}),
			Exact:             true,
			RewritingComplete: true,
			QueryRewritable:   true,
		}, nil
	}
	// Serve the chase side from the snapshot's materialization when it
	// already holds a fixpoint: exact under any budget, no re-chase needed,
	// no lock held.
	if s.mat != nil && s.mat.terminated {
		return &Approx{
			Answers:         s.evalUCQ(query.MustNewUCQ(q), true, evalOptions(Options{})),
			Exact:           true,
			ChaseTerminated: true,
		}, nil
	}
	// The chase runs on a private clone of the snapshot's base, unlocked
	// (Clone synchronizes with concurrent lazy index builds itself).
	data := s.base.Clone()
	st := chase.NewState(chase.Options{MaxSteps: opts.MaxChaseSteps, TrackProvenance: o.wantProv.Load()})
	ch := st.Resume(s.rules, data, data)

	res := &Approx{
		RewritingComplete: rw.Complete,
		ChaseTerminated:   ch.Terminated,
		QueryRewritable:   rw.Complete,
		Exact:             rw.Complete || ch.Terminated,
	}

	switch {
	case ch.Terminated:
		// Exact via the chase.
		res.Answers = eval.UCQ(query.MustNewUCQ(q), data, eval.Options{FilterNulls: true})
	default:
		// Both truncated: each is sound, so their union is a sound
		// under-approximation (the truncated rewriting evaluated on raw
		// data only uses certain disjuncts; the truncated chase contains
		// only entailed facts).
		ans := eval.UCQ(rw.UCQ, s.base, eval.Options{FilterNulls: true})
		for _, t := range eval.UCQ(query.MustNewUCQ(q), data, eval.Options{FilterNulls: true}).Tuples() {
			ans.Add(t)
		}
		res.Answers = ans
	}
	if ch.Terminated {
		// Donate the fixpoint to the next snapshot so later chase-mode answers
		// (and repeated AnswerApprox calls) are cache hits. Done after all
		// evaluation over the private instance — once published it is shared
		// and extended copy-on-write by the writers. The chase ran outside
		// wmu, so it describes the current ontology only if s is still the
		// published snapshot.
		o.wmu.Lock()
		if o.snap.Load() == s {
			next := s.next()
			next.setMat(data, st, true, ch.Steps, ch.Rounds)
			o.publish(next)
		}
		o.wmu.Unlock()
	}
	return res, nil
}

// String summarizes the approximation status.
func (a *Approx) String() string {
	status := "sound under-approximation"
	if a.Exact {
		status = "exact"
	}
	return fmt.Sprintf("%d answers (%s; rewriting complete=%v, chase terminated=%v)",
		a.Answers.Len(), status, a.RewritingComplete, a.ChaseTerminated)
}

package eval

import (
	"context"

	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/storage"
)

// CompileDeltaCQ compiles member di of a CQ's body pinned to a seed tuple,
// keeping the head projection: Runner.RunTuple unifies the seed tuple with
// body atom di and joins the remaining atoms, and every match projects a
// head tuple exactly as CompileCQ's plans do. The answer-view cache compiles
// one such plan per (CQ, body atom) so an inserted delta can be joined
// against a cached result without re-running the full query.
func CompileDeltaCQ(q *query.CQ, di int, store storage.Store, _ Planner, join JoinStrategy) *Plan {
	return compile(&q.Head, q.Body, di, nil, store, join)
}

// SeedPred returns the predicate of a delta plan's pinned atom ("" for
// ordinary plans). Maintenance code uses it to route delta tuples to the
// plans that consume them.
func (p *Plan) SeedPred() string { return p.seedPred }

// EachDelta joins every delta tuple against the store through the delta
// plans compiled for its predicate (CompileDeltaCQ) and hands each resulting
// head tuple to yield. Null-carrying heads are dropped (certain-answer
// semantics); duplicates are NOT suppressed — callers merge into a
// deduplicating set. Yield owns the tuple it receives. The work is bounded
// by the delta, so there is no cancellation context: callers run it inside
// the mutation pipeline's publish step, past the point of no return.
func EachDelta(plans []*Plan, store storage.Store, delta map[string][]storage.Tuple, yield func(storage.Tuple)) {
	for _, plan := range plans {
		tuples := delta[plan.seedPred]
		if len(tuples) == 0 {
			continue
		}
		r := plan.NewRunner()
		if !r.Bind(store) {
			continue
		}
		for _, t := range tuples {
			r.RunTuple(t, func(regs []logic.Term) bool {
				if headHasNull(plan, regs) {
					return true
				}
				yield(projectHead(plan, regs))
				return true
			})
		}
	}
}

// Stream is the sequential union iterator — the one read path under every
// collecting, pushing and pulling consumer (RunPlansCtx, and
// Ontology.AnswerCtx/AnswerEach/AnswerStream). It drives each plan's runner
// in order, drops null-carrying answers under FilterNulls, deduplicates
// across union members and stops at Limit: the first answers reach the
// consumer while the iterator tree is still enumerating, and a Limit
// abandons the tree as soon as it is satisfied. It is resumable: a consumer
// that parks between rows (the server's pace-car flights) picks up exactly
// where it left off, possibly under a different context. The dedup set is
// the answer set being built, so a collector takes the finished set from
// Answers instead of re-inserting every row. Not safe for concurrent use —
// the pace-car serializes drivers behind its drive token.
type Stream struct {
	plans []*Plan
	store storage.Store
	opts  Options
	// pi is the plan being enumerated by r (nil: not opened yet);
	// len(plans) once the stream is exhausted or closed.
	pi  int
	r   *Runner
	ans *Answers
	err error
}

// NewStream builds a stream over the plans of a union of the given arity.
func NewStream(plans []*Plan, arity int, store storage.Store, opts Options) *Stream {
	return &Stream{plans: plans, store: store, opts: opts, ans: NewAnswers(arity)}
}

// Next returns the next distinct answer in the deterministic sequential
// order, or ok=false when the stream is exhausted (Limit reached, all plans
// drained, or closed). The tuple belongs to the stream's answer set —
// read-only for the caller. ctx is polled once per plan and at the
// executor's amortized interval within one; cancellation kills the stream,
// and every later Next returns the same error — callers that share a stream
// across consumers must drive it under a context that outlives any one of
// them.
func (s *Stream) Next(ctx context.Context) (storage.Tuple, bool, error) {
	if s.err != nil {
		return nil, false, s.err
	}
	for ; s.pi < len(s.plans); s.pi++ {
		plan := s.plans[s.pi]
		if s.r == nil {
			if s.err = ctx.Err(); s.err != nil {
				return nil, false, s.err
			}
			r := plan.NewRunner()
			if !r.Bind(s.store) {
				continue
			}
			r.Start(0, 1)
			s.r = r
		}
		s.r.SetContext(ctx)
		//repro:allow ctxpoll Runner.Next polls the armed context per candidate batch
		for s.r.Next() {
			regs := s.r.Regs()
			if s.opts.FilterNulls && headHasNull(plan, regs) {
				continue
			}
			t := projectHead(plan, regs)
			if !s.ans.AddOwned(t) {
				continue
			}
			if s.opts.Limit > 0 && s.ans.Len() >= s.opts.Limit {
				s.Close()
			}
			return t, true, nil
		}
		flushPruned(s.r, s.opts)
		if s.err = s.r.Err(); s.err != nil {
			return nil, false, s.err
		}
		s.r = nil
	}
	return nil, false, nil
}

// Close ends the stream early — the consumer has what it wanted. Later Next
// calls report exhaustion.
func (s *Stream) Close() {
	if s.r != nil {
		flushPruned(s.r, s.opts)
		s.r = nil
	}
	s.pi = len(s.plans)
}

// Answers is the set of answers produced so far, in stream order: the
// complete result once Next has reported exhaustion with a nil error.
// Callers must not add to it while the stream is live.
func (s *Stream) Answers() *Answers { return s.ans }

// Collect drains the stream and returns its complete answer set. A stream
// nothing was pulled from yet is handed to the parallel collector when
// Options.Parallelism asks for one (Limit > 0 forces the sequential path);
// the answer set is identical. On cancellation the partial answers are
// dropped and the context error is returned.
func (s *Stream) Collect(ctx context.Context) (*Answers, error) {
	if p := s.opts.Parallelism; p > 1 && s.opts.Limit == 0 && s.pi == 0 && s.r == nil {
		s.pi = len(s.plans)
		return parallelEval(ctx, s.plans, s.ans.arity, s.store, s.opts, p)
	}
	//repro:allow ctxpoll Next polls ctx per candidate batch and per plan
	for {
		_, ok, err := s.Next(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			return s.ans, nil
		}
	}
}

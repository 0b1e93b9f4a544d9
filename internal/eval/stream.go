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
func CompileDeltaCQ(q *query.CQ, di int, store storage.Store, planner Planner, join JoinStrategy) *Plan {
	return compile(&q.Head, q.Body, di, nil, store, planner, join)
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

// Stream is a resumable pull iterator over the union of compiled CQ plans:
// the streaming core of Each, reified so a consumer that parks between rows
// (the server's pace-car flights) can resume exactly where it left off,
// possibly under a different context. Not safe for concurrent use — the
// pace-car serializes drivers behind its drive token.
type Stream struct {
	plans []*Plan
	store storage.Store
	opts  Options
	pi    int
	r     *Runner
	seen  map[string]bool
	count int
	done  bool
}

// NewStream builds a stream over the plans. Parallelism is ignored — a
// resumable stream is only defined sequentially, in the same deterministic
// order Each produces.
func NewStream(plans []*Plan, store storage.Store, opts Options) *Stream {
	return &Stream{plans: plans, store: store, opts: opts, seen: make(map[string]bool)}
}

// Next returns the next distinct answer, or ok=false when the stream is
// exhausted (Limit reached or all plans drained). The tuple is freshly
// allocated and owned by the caller. ctx arms the executor's amortized
// cancellation poll for this step only; a later Next under a live context
// resumes after a canceled one returned its error, because cancellation
// kills the underlying runner — callers that share a stream across
// consumers must drive it under a context that outlives any one of them.
func (s *Stream) Next(ctx context.Context) (storage.Tuple, bool, error) {
	if s.done {
		return nil, false, nil
	}
	for s.pi < len(s.plans) {
		plan := s.plans[s.pi]
		if s.r == nil {
			r := plan.NewRunner()
			if !r.Bind(s.store) {
				s.pi++
				continue
			}
			r.SetContext(ctx)
			r.Start(0, 1)
			s.r = r
		} else {
			s.r.SetContext(ctx)
		}
		//repro:allow ctxpoll Next polls the armed context per candidate batch
		for s.r.Next() {
			regs := s.r.Regs()
			if s.opts.FilterNulls && headHasNull(plan, regs) {
				continue
			}
			t := projectHead(plan, regs)
			k := t.Key()
			if s.seen[k] {
				continue
			}
			s.seen[k] = true
			s.count++
			if s.opts.Limit > 0 && s.count >= s.opts.Limit {
				s.done = true
			}
			return t, true, nil
		}
		flushPruned(s.r, s.opts)
		if err := s.r.Err(); err != nil {
			return nil, false, err
		}
		s.r = nil
		s.pi++
	}
	s.done = true
	return nil, false, nil
}

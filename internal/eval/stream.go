package eval

import (
	"context"

	"repro/internal/storage"
)

// Stream is the sequential union iterator — the one read path under every
// collecting and pushing consumer (RunPlansCtx, and
// Ontology.AnswerCtx/AnswerEach). It drives each plan's runner in order,
// drops null-carrying answers under FilterNulls, deduplicates across union
// members and stops at Limit: the first answers reach the consumer while the
// iterator tree is still enumerating, and a Limit abandons the tree as soon
// as it is satisfied. The dedup set is the answer set being built, so a
// collector takes the finished set from Answers instead of re-inserting every
// row. Not safe for concurrent use: every consumer opens its own stream.
type Stream struct {
	plans []*Plan
	ins   *storage.Instance
	opts  Options
	// pi is the plan being enumerated by r (nil: not opened yet);
	// len(plans) once the stream is exhausted or closed.
	pi  int
	r   *Runner
	ans *Answers
	err error
}

// NewStream builds a stream over the plans of a union of the given arity.
func NewStream(plans []*Plan, arity int, ins *storage.Instance, opts Options) *Stream {
	return &Stream{plans: plans, ins: ins, opts: opts, ans: NewAnswers(arity)}
}

// Next returns the next distinct answer in the deterministic sequential
// order, or ok=false when the stream is exhausted (Limit reached, all plans
// drained, or closed). The tuple belongs to the stream's answer set —
// read-only for the caller. ctx is polled once per plan and at the
// executor's amortized interval within one; cancellation kills the stream,
// and every later Next returns the same error.
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
			if !r.Bind(s.ins) {
				continue
			}
			r.Start()
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
	s.r = nil
	s.pi = len(s.plans)
}

// Answers is the set of answers produced so far, in stream order: the
// complete result once Next has reported exhaustion with a nil error.
// Callers must not add to it while the stream is live.
func (s *Stream) Answers() *Answers { return s.ans }

// Collect drains the stream and returns its complete answer set. On
// cancellation the partial answers are dropped and the context error is
// returned.
func (s *Stream) Collect(ctx context.Context) (*Answers, error) {
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

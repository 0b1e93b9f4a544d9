package eval

import (
	"context"

	"repro/internal/logic"
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
// row; each row costs one probe of it, and no key string. Rows are
// projected into slabs of terms, one allocation per slab rather than per
// row. Not safe for concurrent use: every consumer opens its own stream.
type Stream struct {
	plans []*Plan
	ins   *storage.Instance
	opts  Options
	// pi is the plan being enumerated by r (nil: not opened yet);
	// len(plans) once the stream is exhausted or closed.
	pi int
	r  *Runner
	// slab is the unused tail of the current row slab; slabRows is the
	// number of rows the current slab was allocated for.
	slab     []logic.Term
	slabRows int
	ans      *Answers
	err      error
}

// Row slabs start at firstSlabRows rows and double up to maxSlabRows: a
// small result, such as one of many cached views, holds a small slab, and a
// large one pays one allocation per maxSlabRows rows.
const (
	firstSlabRows = 4
	maxSlabRows   = 1024
)

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
			// A nil slab is refilled even for arity 0, whose rows must be
			// empty tuples, not nil ones.
			if s.slab == nil || len(s.slab) < len(plan.head) {
				s.refill(len(plan.head))
			}
			t, ok := s.emit(plan, regs)
			if !ok {
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

// emit projects the current match into the next free row of the slab and
// adds it to the answer set, reporting whether it was new. A duplicate
// leaves its row of the slab to the next match.
//
//repro:hotpath
func (s *Stream) emit(plan *Plan, regs []logic.Term) (storage.Tuple, bool) {
	w := len(plan.head)
	t := storage.Tuple(s.slab[:w:w])
	for i, h := range plan.head {
		if h.slot >= 0 {
			t[i] = regs[h.slot]
		} else {
			t[i] = h.term
		}
	}
	if !s.ans.AddOwned(t) {
		return nil, false
	}
	s.slab = s.slab[w:]
	return t, true
}

// refill replaces the exhausted slab by a fresh one for rows of width w,
// twice the rows of the last (firstSlabRows to start, maxSlabRows at most).
func (s *Stream) refill(w int) {
	s.slabRows = min(max(2*s.slabRows, firstSlabRows), maxSlabRows)
	s.slab = make([]logic.Term, s.slabRows*w)
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

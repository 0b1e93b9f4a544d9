// The executor half of the evaluation engine: a compiled Plan runs over a
// flat register array of terms. Backtracking is iterative with per-depth
// cursors; undo is free because every register an atom binds is overwritten
// before it can be read again (registers are only read by ops at the same or
// a deeper level, and re-entering a level re-runs its binds). The hot loop
// performs no substitution-map operations and no per-binding allocations —
// the only map reads are the index probes themselves.
package eval

import (
	"context"

	"repro/internal/logic"
	"repro/internal/storage"
)

// cancelCheckMask amortizes context checks over the candidate loop: the
// deadline is polled once every cancelCheckMask+1 candidate tuples, so the
// per-tuple cost of cancellation support is one increment and one masked
// compare — the zero-alloc hot loop stays zero-alloc and branch-predictable,
// while a canceled enumeration still aborts within a few thousand tuples.
const cancelCheckMask = 0x0FFF

// cursor is the iteration state of one join level.
type cursor struct {
	// posting lists candidate tuple offsets (index probe); nil scans tuples.
	posting []int
	tuples  []storage.Tuple
	n       int // candidates to visit
	pos     int
}

// Runner is the mutable execution state of one plan: the register file, the
// per-level cursors, and the relation pointers resolved against a store. A
// Runner belongs to one goroutine; allocate one per worker (NewRunner) and
// reuse it across executions — Bind, seed, Start and Next allocate nothing in
// steady state.
type Runner struct {
	plan *Plan
	regs []logic.Term
	curs []cursor
	// rels holds the relation each level reads, resolved by Bind.
	rels []*storage.Relation

	// depth and done are the resumable iterator position between Next calls.
	depth int
	done  bool

	// ctx, when non-nil, is polled (amortized, see cancelCheckMask) during
	// enumeration; on cancellation Next returns false and Err reports why.
	ctx  context.Context
	tick uint32
	err  error
}

// NewRunner allocates the execution state for the plan.
func (p *Plan) NewRunner() *Runner {
	return &Runner{
		plan: p,
		regs: make([]logic.Term, p.nslots),
		curs: make([]cursor, len(p.atoms)),
		rels: make([]*storage.Relation, len(p.atoms)),
		done: true,
	}
}

// SetContext arms the runner with a cancellation context: Run (and RunTuple)
// poll it at amortized intervals and abort the enumeration when it is
// canceled, after which Err reports the cause. A nil (or Background) context
// disarms the checks entirely — the enumeration loop then pays a single
// pointer compare per polled candidate. SetContext also clears any previous
// cancellation, so a reused runner starts clean. The amortized poll counter
// runs on: a consumer that re-arms between rows (Stream.Next) must still
// reach a poll every cancelCheckMask+1 candidates, however few each row costs.
func (r *Runner) SetContext(ctx context.Context) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // not cancelable: skip the polling entirely
	}
	r.ctx = ctx
	r.err = nil
}

// Err returns the context error that aborted the last enumeration, or nil if
// it ran to completion (or was stopped by yield).
func (r *Runner) Err() error { return r.err }

// canceled polls the armed context once every cancelCheckMask+1 calls.
//
//repro:hotpath
func (r *Runner) canceled() bool {
	if r.ctx == nil {
		return false
	}
	if r.tick++; r.tick&cancelCheckMask != 0 {
		return false
	}
	if err := r.ctx.Err(); err != nil {
		r.err = err
		return true
	}
	return false
}

// Bind resolves the plan's relations against the instance, reporting
// whether every atom has a matching relation (false means no binding can
// ever match, and Run must not be called). Resolution is by name on every
// Bind, so plans survive copy-on-write relation swaps and relations created
// after compilation; within one enumeration the instance must be frozen, as
// for all concurrent reads. The instance is only consulted here: enumeration
// reads the resolved relations directly.
//
//repro:hotpath
func (r *Runner) Bind(ins *storage.Instance) bool {
	for i := range r.plan.atoms {
		a := &r.plan.atoms[i]
		rel := ins.Relation(a.pred)
		if rel == nil || rel.Arity() != a.arity {
			return false
		}
		r.rels[i] = rel
	}
	return true
}

// SeedSubst fills the seed registers of a Subst-seeded plan (CompileBody):
// register i takes the walked image of seedVars[i]. Every seed variable must
// resolve to a rigid term.
//
//repro:hotpath
func (r *Runner) SeedSubst(seed logic.Subst) {
	for i, v := range r.plan.seedVars {
		r.regs[i] = seed.Walk(v)
	}
}

// RunTuple executes a delta plan (CompileDelta) for one seed tuple: the seed
// micro-program binds/checks the pinned atom's columns against the tuple —
// exactly unification, including repeated variables and constants — and on
// success the remaining atoms are enumerated. Returns false iff yield
// aborted the enumeration. Requires a successful Bind.
//
//repro:hotpath
func (r *Runner) RunTuple(tuple storage.Tuple, yield func(regs []logic.Term) bool) bool {
	for _, o := range r.plan.seedOps {
		t := tuple[o.col]
		switch o.kind {
		case opBind:
			r.regs[o.slot] = t
		case opEq:
			if r.regs[o.slot] != t {
				return true
			}
		case opConst:
			if o.term != t {
				return true
			}
		}
	}
	return r.Run(yield)
}

// Start positions the runner at the beginning of the match space so Next can
// pull matches one at a time (the Volcano open() of this executor). Requires
// a successful Bind (and SeedSubst for seeded plans) first.
//
//repro:hotpath
func (r *Runner) Start() {
	r.depth = 0
	r.done = false
	if len(r.plan.atoms) > 0 {
		r.initCursor(0)
	}
}

// Next advances to the next match of the started enumeration, returning true
// with the match available through Regs. It returns false when the match
// space is exhausted or the armed context is canceled (Err distinguishes).
// The register file is reused across calls — callers must copy what they
// keep. The iterative backtracking loop performs no allocations; the context
// poll is amortized (cancelCheckMask) so the hot loop stays branch-
// predictable.
//
//repro:hotpath
func (r *Runner) Next() bool {
	if r.done {
		return false
	}
	atoms := r.plan.atoms
	if len(atoms) == 0 {
		r.done = true
		return true // the empty plan has exactly one (empty) match
	}
	last := len(atoms) - 1
	depth := r.depth
	for {
		cur := &r.curs[depth]
		matched := false
		for cur.pos < cur.n {
			if r.canceled() {
				r.done = true
				return false
			}
			i := cur.pos
			cur.pos++
			var tuple storage.Tuple
			if cur.posting != nil {
				tuple = cur.tuples[cur.posting[i]]
			} else {
				tuple = cur.tuples[i]
			}
			if r.check(depth, tuple) {
				matched = true
				break
			}
		}
		if !matched {
			depth--
			if depth < 0 {
				r.done = true
				r.depth = 0
				return false
			}
			continue
		}
		if depth == last {
			r.depth = depth
			return true
		}
		depth++
		r.initCursor(depth)
	}
}

// Regs exposes the register file holding the current match after a true
// Next. The slice is reused by the next Next call — copy what you keep.
//
//repro:hotpath
func (r *Runner) Regs() []logic.Term { return r.regs }

// Run enumerates every match of the plan over the bound instance, invoking
// yield with the register file for each; enumeration stops early when yield
// returns false (Run then returns false). It is a thin collector over the
// Start/Next iterator core — streaming consumers drive Next directly. A
// runner armed with SetContext aborts (returning false, with Err set) when
// its context is canceled.
//
//repro:hotpath
func (r *Runner) Run(yield func(regs []logic.Term) bool) bool {
	r.Start()
	//repro:allow ctxpoll Next polls the armed context per candidate batch
	for r.Next() {
		if !yield(r.regs) {
			return false
		}
	}
	return r.err == nil
}

// initCursor positions the cursor of one level on its candidate set: an
// index probe on the planned column, or a scan when the plan fixed none.
//
//repro:hotpath
func (r *Runner) initCursor(depth int) {
	step := &r.plan.atoms[depth]
	cur := &r.curs[depth]
	rel := r.rels[depth]
	cur.tuples = rel.Tuples()
	cur.pos = 0
	if step.idxCol >= 0 {
		key := step.keyTerm
		if step.keySlot >= 0 {
			key = r.regs[step.keySlot]
		}
		cur.posting = rel.Lookup(step.idxCol, key)
		cur.n = len(cur.posting)
		return
	}
	cur.posting = nil
	cur.n = len(cur.tuples)
}

// check runs one atom's micro-program against a candidate tuple, binding
// registers as a side effect. A false return leaves some registers written;
// that is safe because they are re-written before any op can read them.
//
//repro:hotpath
func (r *Runner) check(depth int, tuple storage.Tuple) bool {
	for _, o := range r.plan.atoms[depth].ops {
		t := tuple[o.col]
		switch o.kind {
		case opBind:
			r.regs[o.slot] = t
		case opEq:
			if r.regs[o.slot] != t {
				return false
			}
		case opConst:
			if o.term != t {
				return false
			}
		}
	}
	return true
}

// Package eval evaluates conjunctive queries and unions of conjunctive
// queries over storage instances — the "classical DBMS evaluation" that a
// first-order rewriting reduces ontological query answering to.
//
// Evaluation is split into a planner and an executor. The planner (plan.go)
// compiles a query once per (query, instance): variables are numbered into
// integer register slots, atoms are ordered by a statistics-driven cost
// model over the per-column distinct counts storage maintains, and every
// atom gets a fixed access path plus a check/bind micro-program. The
// executor (exec.go) runs the plan over a flat register array — no
// substitution maps, no term walking, no per-binding allocation. CQ, UCQ,
// Matches and MatchesSeeded all share the same compiled pipeline; callers
// that evaluate the same query repeatedly can compile once (CompileCQ /
// CompileUCQ) and run the plans via RunPlans.
//
// Answers are a set, as the paper's semantics asks. The stream (stream.go)
// projects rows into slabs of terms and keeps them in Answers, whose
// membership is the store's hashed tuple set (storage.TupleSet) — no key
// string per row.
package eval

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"strings"

	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/storage"
)

// Options configures evaluation.
type Options struct {
	// FilterNulls drops answers containing labelled nulls. Certain-answer
	// semantics over a chased instance requires it.
	FilterNulls bool
	// Limit stops after this many distinct answers (0 = unlimited).
	Limit int
}

// Answers is a set of answer tuples that keeps insertion order.
//
// Membership is the store's: a storage.TupleSet, hash-keyed with no key
// string per row, whose probe compares terms, so tuples whose hashes collide
// but which differ are all kept. An insert probes once. Reads do not write,
// so a completed set may be read by any number of goroutines.
type Answers struct {
	arity int
	set   storage.TupleSet
}

// NewAnswers creates an empty answer set of the given arity.
func NewAnswers(arity int) *Answers {
	return &Answers{arity: arity}
}

// Add inserts a copy of the tuple, reporting whether it was new. Use
// AddOwned when the tuple is freshly allocated and never reused by the
// caller — the executor's projection path is, so evaluation never clones.
func (a *Answers) Add(t storage.Tuple) bool {
	if a.set.Contains(t) {
		return false
	}
	return a.set.Add(t.Clone())
}

// AddOwned inserts the tuple without copying, taking ownership. The caller
// must not mutate or reuse the tuple afterwards.
//
//repro:hotpath
func (a *Answers) AddOwned(t storage.Tuple) bool { return a.set.Add(t) }

// Contains reports membership.
func (a *Answers) Contains(t storage.Tuple) bool { return a.set.Contains(t) }

// Len returns the number of distinct answers.
func (a *Answers) Len() int { return a.set.Len() }

// Arity returns the tuple width.
func (a *Answers) Arity() int { return a.arity }

// Tuples returns the answers in insertion order; callers must not mutate.
func (a *Answers) Tuples() []storage.Tuple { return a.set.Tuples() }

// Sorted returns the answers sorted lexicographically, term by term on
// (kind, name): stable, deterministic output for printing and comparison.
func (a *Answers) Sorted() []storage.Tuple {
	out := slices.Clone(a.Tuples())
	slices.SortFunc(out, compareTuples)
	return out
}

// compareTuples orders tuples term by term, on kind and then name.
func compareTuples(x, y storage.Tuple) int {
	for i := range min(len(x), len(y)) {
		if c := cmp.Compare(x[i].Kind, y[i].Kind); c != 0 {
			return c
		}
		if c := strings.Compare(x[i].Name, y[i].Name); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(x), len(y))
}

// Equal reports whether two answer sets contain the same tuples.
func (a *Answers) Equal(b *Answers) bool {
	if a.Len() != b.Len() {
		return false
	}
	for _, t := range a.Tuples() {
		if !b.Contains(t) {
			return false
		}
	}
	return true
}

// Minus returns the tuples in a but not in b.
func (a *Answers) Minus(b *Answers) []storage.Tuple {
	var out []storage.Tuple
	for _, t := range a.Tuples() {
		if !b.Contains(t) {
			out = append(out, t)
		}
	}
	return out
}

// String renders the answers as sorted comma-separated rows.
func (a *Answers) String() string {
	var lines []string
	for _, t := range a.Sorted() {
		parts := make([]string, len(t))
		for i, x := range t {
			parts[i] = x.String()
		}
		lines = append(lines, "("+strings.Join(parts, ", ")+")")
	}
	return strings.Join(lines, "\n")
}

// CQ evaluates a conjunctive query over the instance, compiling a plan per
// call.
func CQ(q *query.CQ, ins *storage.Instance, opts Options) *Answers {
	return RunPlans([]*Plan{CompileCQ(q, ins, PlannerDefault, JoinDefault)}, q.Arity(), ins, opts)
}

// UCQ evaluates a union of conjunctive queries, unioning the answers.
func UCQ(u *query.UCQ, ins *storage.Instance, opts Options) *Answers {
	return RunPlans(CompileUCQ(u, ins, PlannerDefault, JoinDefault), u.Arity(), ins, opts)
}

// UCQCtx is UCQ under a cancellation context: evaluation aborts promptly
// (amortized per-candidate polling in the executor) when ctx is canceled and
// returns the context error; the partial answer set is discarded.
func UCQCtx(ctx context.Context, u *query.UCQ, ins *storage.Instance, opts Options) (*Answers, error) {
	return RunPlansCtx(ctx, CompileUCQ(u, ins, PlannerDefault, JoinDefault), u.Arity(), ins, opts)
}

// RunPlans evaluates precompiled CQ plans (the disjuncts of a union) over
// the instance, unioning the answers. It is the execution entry point behind
// CQ and UCQ; callers holding a plan cache (Ontology) invoke it directly so
// repeated queries skip compilation.
func RunPlans(plans []*Plan, arity int, ins *storage.Instance, opts Options) *Answers {
	ans, _ := RunPlansCtx(context.Background(), plans, arity, ins, opts)
	return ans
}

// RunPlansCtx is RunPlans under a cancellation context: the runner polls
// ctx at amortized intervals, so a canceled or deadline-expired evaluation
// stops within a few thousand candidate tuples. On cancellation the
// (partial, meaningless) answers are dropped and the context error is
// returned; a nil error means the answer set is complete.
func RunPlansCtx(ctx context.Context, plans []*Plan, arity int, ins *storage.Instance, opts Options) (*Answers, error) {
	return NewStream(plans, arity, ins, opts).Collect(ctx)
}

// headHasNull reports whether the current match projects a labelled null
// into the head.
func headHasNull(plan *Plan, regs []logic.Term) bool {
	for _, h := range plan.head {
		if h.slot >= 0 && regs[h.slot].IsNull() {
			return true
		}
	}
	return false
}

// Holds reports whether a boolean query (arity 0) is satisfied.
func Holds(q *query.CQ, ins *storage.Instance, opts Options) bool {
	opts.Limit = 1
	return CQ(q, ins, opts).Len() > 0
}

// Matches enumerates every substitution of the body variables such that all
// body atoms hold in the instance, invoking yield for each; enumeration
// stops when yield returns false. The substitution passed to yield is
// reused across calls — callers must copy what they keep.
func Matches(body []logic.Atom, ins *storage.Instance, yield func(logic.Subst) bool) {
	MatchesSeeded(body, ins, nil, yield)
}

// MatchesSeeded is Matches with an initial binding: only extensions of seed
// are enumerated. It compiles a plan per call; hot callers (the chase)
// compile once with CompileBody/CompileDelta and drive the Runner directly.
func MatchesSeeded(body []logic.Atom, ins *storage.Instance, seed logic.Subst, yield func(logic.Subst) bool) {
	seedVars := make([]logic.Term, 0, len(seed))
	for v := range seed {
		seedVars = append(seedVars, v)
	}
	sort.Slice(seedVars, func(i, j int) bool { return seedVars[i].Name < seedVars[j].Name })
	plan := CompileBody(body, ins, seedVars, PlannerDefault, JoinDefault)
	r := plan.NewRunner()
	if !r.Bind(ins) {
		return
	}
	r.SeedSubst(seed)
	binding := logic.NewSubst()
	r.Run(func(regs []logic.Term) bool {
		for v := range binding {
			delete(binding, v)
		}
		for i, v := range plan.slotVar {
			if t := regs[i]; t != v {
				binding[v] = t
			}
		}
		return yield(binding)
	})
}

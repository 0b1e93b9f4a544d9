// Package chase implements the chase procedure for TGDs over database
// instances: the materialization-based expansion technique for
// certain-answer query answering. The chase is the restricted one: a
// trigger fires only when its head is not already satisfied. It invents
// labelled nulls for existential head variables, schedules in fair rounds,
// and has step/round budgets so non-terminating rule sets are handled
// gracefully.
//
// The engine is a semi-naive, delta-driven fixpoint: each round enumerates
// only the triggers in which at least one body atom matches a fact derived
// in the previous round (the delta), instead of re-joining the whole
// instance. A round reads the instance as it stood at the round's start:
// trigger collection runs over (rule, delta atom) tasks against it, and the
// firings buffer their head facts in a storage.Shard that is merged at the
// round barrier. A run is reproducible: the same input and options give the
// same instance, down to tuple order and null names.
//
// The fixpoint is resumable: Run is a thin wrapper that copies the data,
// creates a State (NewState) and calls State.Resume with the whole input as
// the starting delta. Incremental maintenance calls Resume again with only
// the newly inserted facts as the delta, against the already-chased instance
// — paying for the consequences of the new facts instead of a full re-chase
// (see Ontology.AddFact in the repro package).
package chase

import (
	"context"

	"repro/internal/dependency"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/storage"
)

// Default budgets applied when Options leaves them zero.
const (
	// DefaultMaxSteps is the default trigger-firing budget.
	DefaultMaxSteps = 100000
	// DefaultMaxRounds is the default fair-round budget.
	DefaultMaxRounds = 1000
)

// Options configures a chase run.
type Options struct {
	// MaxSteps bounds the number of trigger firings (0 = DefaultMaxSteps).
	MaxSteps int
	// MaxRounds bounds the number of fair rounds (0 = DefaultMaxRounds).
	MaxRounds int
	// Deprecated: Parallelism is ignored. The chase runs on one worker.
	Parallelism int
	// Deprecated: TrackProvenance is ignored. Every State can repair
	// deletions: it keeps only each existential firing's nulls.
	TrackProvenance bool
}

func (o Options) withDefaults() Options {
	if o.MaxSteps == 0 {
		o.MaxSteps = DefaultMaxSteps
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = DefaultMaxRounds
	}
	return o
}

// Result is the outcome of a chase run (or of one Resume increment).
type Result struct {
	// Instance is the (possibly truncated) chase of the input. Set by Run,
	// which owns the copy it chased; the State methods extend an instance the
	// caller holds and leave it nil.
	Instance *storage.Instance
	// Terminated reports whether a fixpoint was reached within budget.
	// When false the instance is a sound but incomplete approximation.
	Terminated bool
	// Err is the context error when the run was aborted by cancellation or
	// deadline (ResumeCtx and friends). An aborted run stopped at a round
	// barrier without merging the interrupted round's writes, so Instance is
	// a valid chase prefix of the input — but the engine State has consumed
	// partial bookkeeping (counters, null table) and must be discarded:
	// incremental maintenance on top of an aborted run is unsound, exactly
	// as after a truncation.
	Err error
	// Steps is the number of trigger firings performed.
	Steps int
	// Rounds is the number of fair rounds performed.
	Rounds int
	// NullsCreated counts invented labelled nulls.
	NullsCreated int
}

// trigger is one candidate rule application: a rule index and its row, the
// values of the rule's BodyVars in order. Rows are carved from the round's
// rowArena; a trigger owns no map and no key.
type trigger struct {
	rule int32
	row  []logic.Term
}

// rowArena hands out trigger rows from shared chunks, so collecting a trigger
// allocates nothing of its own. Rows are never freed one by one: a round's
// arena becomes garbage together with its trigger list.
type rowArena struct {
	chunk []logic.Term
	size  int // capacity of the next chunk, doubling up to maxArenaChunk
}

const maxArenaChunk = 4096

// row returns a fresh row of n terms.
func (a *rowArena) row(n int) []logic.Term {
	if len(a.chunk) < n {
		a.size = min(max(2*a.size, 64), maxArenaChunk)
		a.chunk = make([]logic.Term, max(a.size, n))
	}
	r := a.chunk[:n:n]
	a.chunk = a.chunk[n:]
	return r
}

// srcKind says where an argument of an instantiated atom comes from.
type srcKind uint8

const (
	fromRow   srcKind = iota // the trigger row, at idx
	fromNull                 // the idx-th fresh null of the firing
	fromConst                // the constant term
)

// argSrc is the source of one argument of a template atom.
type argSrc struct {
	kind srcKind
	idx  int
	term logic.Term
}

// value is the argument's term in a firing of row whose nulls are nulls.
func (s argSrc) value(row, nulls []logic.Term) logic.Term {
	switch s.kind {
	case fromRow:
		return row[s.idx]
	case fromNull:
		return nulls[s.idx]
	}
	return s.term
}

// atomTmpl is a rule atom with every argument resolved to its source.
type atomTmpl struct {
	pred string
	args []argSrc
}

// template is a rule compiled for firing from a trigger row: the row layout
// (the rule's BodyVars), the row position of each distinguished variable (in
// Distinguished order, which is also the seed order of the head plan), the
// number of existential head variables (nulls are invented in
// ExistentialHead order), and the source of every head argument.
// Templates are compiled once per rule per Resume (and per DRed call), so
// the firing path never recomputes the rule's variable sets.
type template struct {
	vars      []logic.Term
	dist      []int
	nexist    int
	head      []atomTmpl
	headArity int
}

// compileTemplate builds the firing template of one rule.
func compileTemplate(rule *dependency.TGD) *template {
	tp := &template{vars: rule.BodyVars()}
	pos := make(map[logic.Term]int, len(tp.vars))
	for i, v := range tp.vars {
		pos[v] = i
	}
	for _, v := range rule.Distinguished() {
		tp.dist = append(tp.dist, pos[v])
	}
	exist := make(map[logic.Term]int)
	for k, v := range rule.ExistentialHead() {
		exist[v] = k
	}
	tp.nexist = len(exist)
	for _, a := range rule.Head {
		at := atomTmpl{pred: a.Pred, args: make([]argSrc, len(a.Args))}
		for j, t := range a.Args {
			if p, ok := pos[t]; ok {
				at.args[j] = argSrc{kind: fromRow, idx: p}
			} else if k, ok := exist[t]; ok {
				at.args[j] = argSrc{kind: fromNull, idx: k}
			} else {
				at.args[j] = argSrc{kind: fromConst, term: t}
			}
		}
		tp.head = append(tp.head, at)
		tp.headArity += a.Arity()
	}
	return tp
}

// compileTemplates compiles the firing template of every rule of the set.
func compileTemplates(rules *dependency.Set) []*template {
	out := make([]*template, len(rules.Rules))
	for ri, rule := range rules.Rules {
		out[ri] = compileTemplate(rule)
	}
	return out
}

// planSet holds the plans compiled once per Resume call and reused across
// every round and every delta fact: per (rule, body atom) a delta plan that
// pins that atom to a delta tuple and joins the rest, per rule a
// head-satisfaction plan seeded by the distinguished variables, and per rule
// the firing template. Statistics are frozen at compile time — a relation
// that merely grows keeps the order (only speed is affected, never the
// computed fixpoint) — except that a relation transitioning empty→non-empty
// between rounds re-costs the rules reading it (refresh): an order costed
// against an empty relation is arbitrary, and later-round relations
// routinely start empty.
type planSet struct {
	delta [][]*eval.Plan // [rule][bodyAtom]
	slots [][][]int      // [rule][bodyAtom] → register slot of each row position
	head  []*eval.Plan   // [rule]
	tmpl  []*template    // [rule]
	// emptyReads[rule] lists the distinct relations the rule's plans read
	// (body and head) that were empty at compile time — the watch list for
	// refresh. Emptied lazily as transitions are consumed.
	emptyReads [][]string
}

// newPlanSet compiles the rule set against the instance.
func newPlanSet(rules *dependency.Set, ins *storage.Instance) *planSet {
	n := len(rules.Rules)
	ps := &planSet{
		delta:      make([][]*eval.Plan, n),
		slots:      make([][][]int, n),
		head:       make([]*eval.Plan, n),
		tmpl:       compileTemplates(rules),
		emptyReads: make([][]string, n),
	}
	for ri, rule := range rules.Rules {
		ps.compileRule(ri, rule, ins)
	}
	return ps
}

// compileRule (re)compiles one rule's delta and head plans against the
// instance and records which of the relations it reads are still empty.
func (ps *planSet) compileRule(ri int, rule *dependency.TGD, ins *storage.Instance) {
	ps.delta[ri] = make([]*eval.Plan, len(rule.Body))
	ps.slots[ri] = make([][]int, len(rule.Body))
	for bi := range rule.Body {
		p := eval.CompileDelta(rule.Body, bi, ins, eval.PlannerDefault, eval.JoinDefault)
		ps.delta[ri][bi] = p
		ps.slots[ri][bi] = p.Slots(ps.tmpl[ri].vars)
	}
	ps.head[ri] = eval.CompileBody(rule.Head, ins, rule.Distinguished(), eval.PlannerDefault, eval.JoinDefault)

	var empty []string
	seen := make(map[string]bool)
	for _, a := range append(append([]logic.Atom{}, rule.Body...), rule.Head...) {
		if seen[a.Pred] {
			continue
		}
		seen[a.Pred] = true
		if !populated(ins, a.Pred) {
			empty = append(empty, a.Pred)
		}
	}
	ps.emptyReads[ri] = empty
}

// populated reports whether the instance holds a tuple of pred.
func populated(ins *storage.Instance, pred string) bool {
	rel := ins.Relation(pred)
	return rel != nil && rel.Len() > 0
}

// refresh re-costs the plans of every rule for which a watched relation
// transitioned empty→non-empty since compilation, returning how many rules
// were re-planned. Runs at the round barrier, where no plan runners are in
// flight; the recompiled plans pick up both fresh statistics and genuine
// access paths for the newly populated relation.
func (ps *planSet) refresh(rules *dependency.Set, ins *storage.Instance) int {
	n := 0
	for ri, watch := range ps.emptyReads {
		if len(watch) == 0 {
			continue
		}
		for _, pred := range watch {
			if populated(ins, pred) {
				ps.compileRule(ri, rules.Rules[ri], ins)
				n++
				break
			}
		}
	}
	return n
}

// headSatisfied is the restricted-chase applicability test on the compiled
// head plan: with the distinguished variables seeded straight from the
// trigger row into the plan's registers, any match of the head atoms
// (existential variables free) means the head already holds. runners caches
// one Runner per rule for the caller, so repeated checks allocate nothing.
//
//repro:hotpath
func (ps *planSet) headSatisfied(ri int, row []logic.Term, ins *storage.Instance, runners []*eval.Runner) bool {
	r := runners[ri]
	if r == nil {
		r = ps.head[ri].NewRunner()
		runners[ri] = r
	}
	if !r.Bind(ins) {
		return false // a head relation is absent: nothing can satisfy it
	}
	regs := r.Regs()
	for i, p := range ps.tmpl[ri].dist {
		regs[i] = row[p]
	}
	r.Start()
	return r.Next()
}

// Run chases data with rules. The input instance is not modified.
func Run(rules *dependency.Set, data *storage.Instance, opts Options) *Result {
	return RunCtx(context.Background(), rules, data, opts)
}

// RunCtx is Run under a cancellation context: the fixpoint checks ctx at
// every round barrier and polls it during trigger collection and firing, so
// a canceled or deadline-expired chase aborts promptly with Result.Err set
// instead of running to its budget.
func RunCtx(ctx context.Context, rules *dependency.Set, data *storage.Instance, opts Options) *Result {
	ins := data.Clone()
	// Round zero's delta is the whole input: every initial fact is "new".
	// Aliasing the instance is safe — rounds only read the delta, writes are
	// buffered in a shard until the barrier.
	res := NewState(opts).ResumeCtx(ctx, rules, ins, ins)
	res.Instance = ins
	return res
}

// collectTriggers enumerates, semi-naively, every rule binding with at least
// one body atom in the delta: task (rule, i) runs the precompiled delta plan
// that pins body atom i to a delta tuple and joins the remaining atoms
// against the frozen instance — no substitution maps and no re-planning per
// delta fact; each binding's row is copied straight out of the register file
// into one arena. A task cannot yield one binding twice: the delta is a
// set, so each binding pins atom i to exactly one delta tuple, and the
// remaining atoms' tuples are the binding's images. Only a binding with
// several body atoms in the delta is found more than once — once per such
// atom, by different tasks of its rule — so just the rules with two or more
// tasks in the round are deduplicated, keeping the first occurrence in task
// order so the trigger list is deterministic. from restricts collection to
// rules with index ≥ from (0 = all): the AddRule maintenance round only
// re-examines the instance against the new rules.
// Collection reads only, so a ctx abort (runner-level polling plus a
// per-tuple guard) leaves the instance untouched; the caller detects it via
// ctx.Err() and discards the partial trigger list.
func collectTriggers(ctx context.Context, rules *dependency.Set, ins, delta *storage.Instance, ps *planSet, from int) []trigger {
	type task struct {
		rule, atom int
	}
	var tasks []task
	ntasks := make([]int, len(rules.Rules))
	bound := 0 // delta tuples over all tasks
	for ri, rule := range rules.Rules {
		if ri < from {
			continue
		}
		for bi, a := range rule.Body {
			if rel := delta.Relation(a.Pred); rel != nil && rel.Arity() == a.Arity() && rel.Len() > 0 {
				tasks = append(tasks, task{rule: ri, atom: bi})
				ntasks[ri]++
				bound += rel.Len()
			}
		}
	}
	// A delta tuple most often yields one binding: size for that.
	out := make([]trigger, 0, bound)
	var arena rowArena
	seen := make(map[int]*storage.TupleSet)
	for _, t := range tasks {
		slots := ps.slots[t.rule][t.atom]
		runner := ps.delta[t.rule][t.atom].NewRunner()
		if !runner.Bind(ins) {
			continue // a body relation is absent: the rule cannot fire
		}
		runner.SetContext(ctx)
		var ruleSeen *storage.TupleSet
		if ntasks[t.rule] > 1 {
			if ruleSeen = seen[t.rule]; ruleSeen == nil {
				ruleSeen = new(storage.TupleSet)
				seen[t.rule] = ruleSeen
			}
		}
		for di, tuple := range delta.Relation(rules.Rules[t.rule].Body[t.atom].Pred).Tuples() {
			if runner.Err() != nil || (di&0xFF == 0 && ctx.Err() != nil) {
				return nil // canceled: the caller discards the partial collection
			}
			runner.RunTuple(tuple, func(regs []logic.Term) bool {
				row := arena.row(len(slots))
				for i, s := range slots {
					row[i] = regs[s]
				}
				if ruleSeen != nil && !ruleSeen.Add(row) {
					return true
				}
				out = append(out, trigger{rule: int32(t.rule), row: row})
				return true
			})
		}
	}
	return out
}

// seedFromTuple unifies one body atom with a ground tuple, producing the
// seed binding for the semi-naive join (or false on clash: a constant
// mismatch or an inconsistent repeated variable).
func seedFromTuple(a logic.Atom, t storage.Tuple) (logic.Subst, bool) {
	s := logic.NewSubst()
	for j, arg := range a.Args {
		w := s.Walk(arg)
		switch {
		case w.IsVar():
			s.Bind(w, t[j])
		case w == t[j]:
		default:
			return nil, false
		}
	}
	return s, true
}

// CertainAnswers evaluates a UCQ over the chase of (rules, data) and keeps
// only null-free tuples. When the chase terminated, the result is exactly
// cert(q, P, D); when truncated, it is a sound under-approximation
// (every reported tuple is a certain answer, but some may be missing).
func CertainAnswers(u *query.UCQ, rules *dependency.Set, data *storage.Instance, opts Options) (*eval.Answers, *Result) {
	res := Run(rules, data, opts)
	ans := eval.UCQ(u, res.Instance, eval.Options{FilterNulls: true})
	return ans, res
}

// Entails reports whether the boolean CQ q is certain over (rules, data).
func Entails(q *query.CQ, rules *dependency.Set, data *storage.Instance, opts Options) (bool, *Result) {
	res := Run(rules, data, opts)
	return eval.Holds(q, res.Instance, eval.Options{FilterNulls: true}), res
}

// Package chase implements the chase procedure for TGDs over database
// instances: the materialization-based expansion technique for
// certain-answer query answering. Both the oblivious chase (fire every
// trigger once) and the restricted chase (fire a trigger only when its head
// is not already satisfied) are provided, with labelled-null invention for
// existential head variables, round-based fair scheduling, and step/round
// budgets so non-terminating rule sets are handled gracefully.
//
// The engine is a semi-naive, delta-driven fixpoint: each round enumerates
// only the triggers in which at least one body atom matches a fact derived
// in the previous round (the delta), instead of re-joining the whole
// instance. Within a round the work fans out over a worker pool
// (Options.Parallelism): trigger collection is parallel over (rule, delta
// atom) tasks against the frozen instance, and trigger firing is parallel
// over trigger chunks with per-worker sharded writes (storage.Shard) that
// are merged, coordination-free, at the round barrier. The chase yields the
// same certain answers for every worker count; only labelled-null names and
// redundant-null counts may differ.
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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dependency"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/storage"
)

// Variant selects the chase flavour.
type Variant int

const (
	// Restricted (standard) chase: a trigger fires only if the head cannot
	// already be satisfied by extending the trigger homomorphism. Terminates
	// strictly more often than the oblivious chase.
	Restricted Variant = iota
	// Oblivious (semi-oblivious) chase: every rule fires at most once per
	// frontier binding regardless of head satisfaction. Simpler, but
	// invents more nulls than the restricted chase.
	Oblivious
)

// String names the variant.
func (v Variant) String() string {
	if v == Oblivious {
		return "oblivious"
	}
	return "restricted"
}

// Default budgets applied when Options leaves them zero.
const (
	// DefaultMaxSteps is the default trigger-firing budget.
	DefaultMaxSteps = 100000
	// DefaultMaxRounds is the default fair-round budget.
	DefaultMaxRounds = 1000
)

// Options configures a chase run.
type Options struct {
	Variant Variant
	// MaxSteps bounds the number of trigger firings (0 = DefaultMaxSteps).
	MaxSteps int
	// MaxRounds bounds the number of fair rounds (0 = DefaultMaxRounds).
	MaxRounds int
	// Parallelism is the worker count for trigger collection and firing
	// within a round (0 or 1 = sequential). The resulting instance is a
	// valid chase for any value; certain answers are identical.
	Parallelism int
	// TrackProvenance records, for every fired trigger, the ground body
	// facts consumed and head facts produced. The provenance graph is what
	// State.Delete needs for DRed-style incremental deletion; runs that will
	// never delete can leave it off and pay nothing.
	TrackProvenance bool
}

func (o Options) withDefaults() Options {
	if o.MaxSteps == 0 {
		o.MaxSteps = DefaultMaxSteps
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = DefaultMaxRounds
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
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
	// partial bookkeeping (counters, fired memory) and must be discarded:
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

// trigger is one candidate rule application: a rule index, the full-body
// binding restricted to the body variables, and its canonical key (computed
// once at discovery, reused for cross-task dedup).
type trigger struct {
	rule     int32
	frontier logic.Subst
	key      string
}

// planSet holds the plans compiled once per Resume call and reused across
// every round and every delta fact: per (rule, body atom) a delta plan that
// pins that atom to a delta tuple and joins the rest, and per rule a
// head-satisfaction plan seeded by the distinguished variables. Statistics
// are frozen at compile time — a relation that merely grows keeps the order
// (only speed is affected, never the computed fixpoint) — except that a
// relation transitioning empty→non-empty between rounds re-costs the rules
// reading it (refresh): an order costed against an empty relation is
// arbitrary, and later-round relations routinely start empty.
type planSet struct {
	delta [][]*eval.Plan // [rule][bodyAtom]
	slots [][][]int      // [rule][bodyAtom] → register slot of each BodyVars()[k]
	head  []*eval.Plan   // [rule]
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
	bodyVars := rule.BodyVars()
	ps.delta[ri] = make([]*eval.Plan, len(rule.Body))
	ps.slots[ri] = make([][]int, len(rule.Body))
	for bi := range rule.Body {
		p := eval.CompileDelta(rule.Body, bi, ins, eval.PlannerDefault, eval.JoinDefault)
		ps.delta[ri][bi] = p
		ps.slots[ri][bi] = p.Slots(bodyVars)
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
// head plan: with the distinguished variables seeded from the trigger
// frontier, any match of the head atoms (existential variables free) means
// the head already holds. runners caches one Runner per rule for the calling
// worker, so repeated checks allocate nothing.
//
//repro:hotpath
func (ps *planSet) headSatisfied(ri int, frontier logic.Subst, ins *storage.Instance, runners []*eval.Runner) bool {
	r := runners[ri]
	if r == nil {
		r = ps.head[ri].NewRunner()
		runners[ri] = r
	}
	if !r.Bind(ins) {
		return false // a head relation is absent: nothing can satisfy it
	}
	r.SeedSubst(frontier)
	found := false
	//repro:allow hotalloc non-escaping yield closure; steady state stays 0 allocs/op (TestSeededJoinStepAllocationFree)
	r.Run(func([]logic.Term) bool {
		found = true
		return false
	})
	return found
}

// Run chases data with rules. The input instance is not modified.
func Run(rules *dependency.Set, data *storage.Instance, opts Options) *Result {
	return RunCtx(context.Background(), rules, data, opts)
}

// RunCtx is Run under a cancellation context: the fixpoint checks ctx at
// every round barrier and the workers poll it during trigger collection and
// firing, so a canceled or deadline-expired chase aborts promptly with
// Result.Err set instead of running to its budget.
func RunCtx(ctx context.Context, rules *dependency.Set, data *storage.Instance, opts Options) *Result {
	ins := data.Clone()
	// Round zero's delta is the whole input: every initial fact is "new".
	// Aliasing the instance is safe — rounds only read the delta, writes are
	// buffered in shards until the barrier.
	res := NewState(opts).ResumeCtx(ctx, rules, ins, ins)
	res.Instance = ins
	return res
}

// collectTriggers enumerates, semi-naively, every rule binding with at least
// one body atom in the delta: task (rule, i) runs the precompiled delta plan
// that pins body atom i to a delta tuple and joins the remaining atoms
// against the frozen instance — no substitution maps and no re-planning per
// delta fact; frontiers and their keys are read straight out of the register
// file and a Subst is materialized only for genuinely new bindings. Bindings
// found through several delta atoms are deduplicated at the merge, preserving
// task order so the sequential path stays deterministic. from restricts
// collection to rules with index ≥ from (0 = all): the AddRule maintenance
// round only re-examines the instance against the new rules. Collection reads
// only, so a ctx abort (runner-level polling plus a per-tuple guard) leaves
// the instance untouched; the caller detects it via ctx.Err() and discards
// the partial trigger list.
func collectTriggers(ctx context.Context, rules *dependency.Set, ins, delta *storage.Instance, workers int, ps *planSet, from int) []trigger {
	type task struct {
		rule, atom int
	}
	var tasks []task
	for ri, rule := range rules.Rules {
		if ri < from {
			continue
		}
		for bi, a := range rule.Body {
			if rel := delta.Relation(a.Pred); rel != nil && rel.Arity() == a.Arity() && rel.Len() > 0 {
				tasks = append(tasks, task{rule: ri, atom: bi})
			}
		}
	}
	found := make([][]trigger, len(tasks))
	runTasks(len(tasks), workers, func(ti int) {
		t := tasks[ti]
		rule := rules.Rules[t.rule]
		bodyVars := rule.BodyVars()
		slots := ps.slots[t.rule][t.atom]
		runner := ps.delta[t.rule][t.atom].NewRunner()
		if !runner.Bind(ins) {
			return // a body relation is absent: the rule cannot fire
		}
		runner.SetContext(ctx)
		seen := make(map[string]bool)
		for di, tuple := range delta.Relation(rule.Body[t.atom].Pred).Tuples() {
			if runner.Err() != nil || (di&0xFF == 0 && ctx.Err() != nil) {
				return // canceled: the caller discards the partial collection
			}
			runner.RunTuple(tuple, func(regs []logic.Term) bool {
				key := regsKey(regs, slots)
				if !seen[key] {
					seen[key] = true
					frontier := make(logic.Subst, len(slots))
					for i, v := range bodyVars {
						frontier[v] = regs[slots[i]]
					}
					found[ti] = append(found[ti], trigger{rule: int32(t.rule), frontier: frontier, key: key})
				}
				return true
			})
		}
	})
	// Merge, deduplicating across tasks of the same rule (a binding with two
	// delta atoms is found once per delta atom).
	var out []trigger
	seen := make(map[int]map[string]bool, len(rules.Rules))
	for ti, trs := range found {
		ruleSeen := seen[tasks[ti].rule]
		if ruleSeen == nil {
			ruleSeen = make(map[string]bool)
			seen[tasks[ti].rule] = ruleSeen
		}
		for _, tr := range trs {
			if !ruleSeen[tr.key] {
				ruleSeen[tr.key] = true
				out = append(out, tr)
			}
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

// runTasks executes fn(0..n-1) on up to `workers` goroutines; with one
// worker it runs inline, so the sequential path pays no scheduling cost.
func runTasks(n, workers int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			//repro:allow ctxpoll bounded by the shared task counter; fn polls per firing
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// headSatisfied reports whether the rule head, with frontier variables bound
// per the trigger, already holds in the instance (the restricted-chase
// applicability test). Existential head variables may map to anything.
// Compiles per call — the Resume hot path uses planSet.headSatisfied
// instead; this stays for the DRed direct sweep, where triggers are few.
func headSatisfied(rule *dependency.TGD, frontier logic.Subst, ins *storage.Instance) bool {
	head := frontier.ApplyAtoms(rule.Head)
	found := false
	eval.Matches(head, ins, func(logic.Subst) bool {
		found = true
		return false
	})
	return found
}

// bindingKey canonically encodes a body binding for deduplication: for each
// variable in order, the walked term's kind digit, name, and a NUL. It is
// the hottest string in the engine (one per enumerated binding per round):
// one Walk pass into a stack buffer sizes and fills a single pre-grown
// strings.Builder — no per-term fmt allocations, no double chain traversal.
func bindingKey(frontier logic.Subst, vars []logic.Term) string {
	return buildKey(nil, frontier, vars)
}

// triggerKey is bindingKey prefixed with the rule index, keying the
// semi-oblivious fired-trigger memory.
func triggerKey(rule int, frontier logic.Subst, vars []logic.Term) string {
	var prefix [20]byte
	p := strconv.AppendInt(prefix[:0], int64(rule), 10)
	p = append(p, 0)
	return buildKey(p, frontier, vars)
}

// splitTriggerKey splits a semi-oblivious trigger key into its rule index
// and the binding suffix (the separating NUL stays with the suffix).
func splitTriggerKey(k string) (int, string) {
	i := strings.IndexByte(k, 0)
	n, _ := strconv.Atoi(k[:i])
	return n, k[i:]
}

// joinTriggerKey re-prefixes a trigger-key suffix with a rule index — the
// inverse of splitTriggerKey, used when rule removal shifts indices down.
func joinTriggerKey(rule int, suffix string) string {
	return strconv.Itoa(rule) + suffix
}

// regsKey is bindingKey read straight from a plan's register file: same
// encoding (kind digit, name, NUL per variable), no substitution walks.
func regsKey(regs []logic.Term, slots []int) string {
	n := 0
	for _, s := range slots {
		n += len(regs[s].Name) + 2
	}
	var b strings.Builder
	b.Grow(n)
	for _, s := range slots {
		t := regs[s]
		b.WriteByte('0' + byte(t.Kind))
		b.WriteString(t.Name)
		b.WriteByte(0)
	}
	return b.String()
}

// buildKey assembles prefix plus the canonical binding encoding.
func buildKey(prefix []byte, frontier logic.Subst, vars []logic.Term) string {
	var buf [8]logic.Term
	walked := buf[:0]
	n := len(prefix)
	for _, v := range vars {
		t := frontier.Walk(v)
		walked = append(walked, t)
		n += len(t.Name) + 2
	}
	var b strings.Builder
	b.Grow(n)
	b.Write(prefix)
	for _, t := range walked {
		b.WriteByte('0' + byte(t.Kind))
		b.WriteString(t.Name)
		b.WriteByte(0)
	}
	return b.String()
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

package chase

import (
	"context"
	"slices"

	"repro/internal/dependency"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/storage"
)

// State is the resumable engine state of an ongoing chase: the labelled-null
// generator, the null table, the rule set last chased, the plans of the
// rules it chases and the cumulative counters. A State is created once per
// materialization (NewState) and threaded through successive Resume calls
// so that later increments invent nulls disjoint from earlier ones. A State
// must not be used by concurrent Resume calls; callers serialize
// maintenance (Ontology does so under its write lock).
type State struct {
	opts Options
	gen  *logic.VarGen
	// invented maps every fired existential trigger whose body still holds
	// to the nulls it invented: the one thing a DRed repair cannot recompute
	// from a trigger's row. aside holds, during a repair only, the entries of
	// the triggers the over-deletion killed, so that a trigger firing again
	// in the same repair reuses its nulls.
	invented, aside map[nullKey][]logic.Term
	// rules is the set last chased, whose rule at DeleteRuleCtx's index is
	// the one removed.
	rules *dependency.Set
	// plans are the compiled plans of the rules last chased or repaired.
	plans *planSet

	steps     int
	rounds    int
	nulls     int
	truncated bool
}

// nullKey names a fired existential trigger in the null table, which maps it
// to the nulls the trigger invented, in ExistentialHead order. The rule is
// keyed by identity, which survives the removal of other rules from the set;
// the row by the key of the full body row (storage.Tuple.Key), not the
// frontier, so two triggers that share a frontier have two entries, as the
// chase gives them two nulls.
type nullKey struct {
	rule *dependency.TGD
	row  string
}

// NewState creates the engine state for a materialization chased with the
// given options; the budgets apply per Resume call. Nulls are named "n#…"
// by one generator, so names cannot collide with parser-produced terms (the
// lexer rejects '#').
func NewState(opts Options) *State {
	return &State{
		opts:     opts.withDefaults(),
		gen:      logic.NewVarGen("n"),
		invented: make(map[nullKey][]logic.Term),
		aside:    make(map[nullKey][]logic.Term),
	}
}

// Options returns the (defaulted) options the state was created with.
func (st *State) Options() Options { return st.opts }

// TotalSteps returns the trigger firings accumulated across all Resume calls.
func (st *State) TotalSteps() int { return st.steps }

// TotalRounds returns the rounds accumulated across all Resume calls.
func (st *State) TotalRounds() int { return st.rounds }

// TotalNulls returns the labelled nulls invented across all Resume calls.
func (st *State) TotalNulls() int { return st.nulls }

// Truncated reports whether any Resume call hit its budget; when true the
// instance is a sound but incomplete approximation and incremental
// maintenance on top of it is unsound — rebuild from scratch instead.
func (st *State) Truncated() bool { return st.truncated }

// Extend inserts ground facts into the instance and resumes the chase with
// the genuinely new ones as the delta — the canonical incremental-maintenance
// step (facts already present, e.g. previously derived, fire nothing). With
// no new facts it returns an empty terminated Result without running a
// round. Unsound after a truncated run (see Truncated): dropped triggers
// would never be reconsidered, so callers must rebuild instead.
func (st *State) Extend(rules *dependency.Set, ins *storage.Instance, facts []logic.Atom) (*Result, error) {
	return st.ExtendCtx(context.Background(), rules, ins, facts)
}

// ExtendCtx is Extend under a cancellation context (see ResumeCtx). On abort
// the inserted base facts remain in the instance and the returned Result
// carries the context error; the caller must discard both the instance and
// the state.
//
// The facts go in through the firing loop's own write: each is copied and
// hashed once into the delta when the instance lacks it (AddNew), and an
// arity conflict rejects them all before the delta is appended (Append).
func (st *State) ExtendCtx(ctx context.Context, rules *dependency.Set, ins *storage.Instance, facts []logic.Atom) (*Result, error) {
	delta := storage.NewInstance()
	for _, f := range facts {
		if err := delta.AddNew(ins, logic.Atom{Pred: f.Pred, Args: storage.Tuple(f.Args).Clone()}); err != nil {
			return nil, err
		}
	}
	if delta.Size() == 0 {
		return &Result{Terminated: true}, nil
	}
	ins.Append(delta)
	return st.resume(ctx, rules, ins, delta, 0, 0), nil
}

// plansFor returns the compiled plans of rules, compiling them only when
// they are not the rules the state last compiled.
func (st *State) plansFor(rules *dependency.Set) *planSet {
	if st.plans == nil || !slices.Equal(st.plans.rules, rules.Rules) {
		st.plans = newPlanSet(rules)
	}
	return st.plans
}

// instantiateHead grounds the rule head for a firing of row: row slots for
// the body variables, nulls for the existential head variables (in
// ExistentialHead order, see nullsFor), constants as written. Every head
// argument lands in one allocation; the atoms are appended to atoms[:0],
// which the caller may reuse when it keeps none of them. Shared by the
// Resume firing loop and the DRed sweeps, so a repair rebuilds exactly the
// facts a firing made.
func instantiateHead(tp *template, row, nulls []logic.Term, atoms []logic.Atom) []logic.Atom {
	args := make([]logic.Term, tp.headArity)
	atoms = atoms[:0]
	for _, h := range tp.head {
		a := args[:len(h.args):len(h.args)]
		args = args[len(h.args):]
		for j, s := range h.args {
			a[j] = s.value(row, nulls)
		}
		atoms = append(atoms, logic.Atom{Pred: h.pred, Args: a})
	}
	return atoms
}

// nullsFor returns the nulls a firing of row under rule uses: the ones the
// trigger invented when it last fired — its entry is in the table, or set
// aside by the repair in progress — else fresh ones from the state's
// generator. The firing's entry is recorded at once (out of the aside set if
// it was there); fresh counts the nulls it invented.
func (st *State) nullsFor(rule *dependency.TGD, tp *template, row []logic.Term) (nulls []logic.Term, fresh int) {
	if tp.nexist == 0 {
		return nil, 0
	}
	key := nullKey{rule: rule, row: storage.Tuple(row).Key()}
	if ns, ok := st.invented[key]; ok {
		return ns, 0
	}
	ns, ok := st.aside[key]
	if ok {
		delete(st.aside, key)
	} else {
		ns = make([]logic.Term, tp.nexist)
		for k := range ns {
			ns[k] = st.gen.FreshNull()
		}
		fresh = tp.nexist
	}
	st.invented[key] = ns
	return ns, fresh
}

// Resume runs the chase fixpoint on the instance starting from an explicit
// delta: only triggers with at least one body atom in delta are considered in
// the first round, exactly as a semi-naive round mid-run. The instance is
// extended in place; delta must be a subset of it (for a from-scratch run
// pass the instance itself, as Run does; for incremental maintenance pass
// just the newly inserted facts, or use Extend).
//
// Head satisfaction is re-checked against the full instance — including
// everything derived by earlier Resume calls — so resuming after an insertion
// yields a valid restricted chase of the extended data: certain answers are
// identical to a from-scratch chase (property-tested).
//
// The returned Result describes this call only (Steps, Rounds, NullsCreated
// count the increment); cumulative totals live on the State. Budgets apply
// per call.
func (st *State) Resume(rules *dependency.Set, ins, delta *storage.Instance) *Result {
	return st.ResumeCtx(context.Background(), rules, ins, delta)
}

// ResumeCtx is Resume under a cancellation context. The fixpoint polls ctx
// at every round barrier, during trigger collection (amortized, in
// the compiled-plan runners) and in the firing loop, so a canceled or
// deadline-expired increment aborts within a bounded amount of work. An
// aborted run returns with Result.Err set and Terminated false, WITHOUT
// appending the interrupted round's new facts: the instance is a valid
// chase prefix, but the state has consumed partial bookkeeping and is marked
// truncated — discard both and rebuild (Ontology.mutate drops its forks and
// the materialization, so readers keep the pre-mutation base).
func (st *State) ResumeCtx(ctx context.Context, rules *dependency.Set, ins, delta *storage.Instance) *Result {
	return st.resume(ctx, rules, ins, delta, 0, 0)
}

// ExtendRulesCtx resumes the chase after rules were appended to the set (the
// AddRule maintenance step): the first round considers only the new rules —
// those at index firstNew and beyond — with the whole instance as the delta,
// since every existing fact is "new" to a rule that has never seen any.
// Their consequences then propagate through the full set semi-naively, so
// the work is proportional to what the new rules actually derive, not to a
// re-chase of the instance. The existing rules need no first-round pass: the
// instance is already their fixpoint. Unsound after a truncated run, exactly
// like Extend. ctx aborts as in ResumeCtx.
func (st *State) ExtendRulesCtx(ctx context.Context, rules *dependency.Set, ins *storage.Instance, firstNew int) *Result {
	if firstNew >= rules.Len() {
		return &Result{Terminated: true} // no new rules
	}
	return st.resume(ctx, rules, ins, ins, firstNew, 0)
}

// resume is the one fixpoint driver. Each round: collect the triggers the
// delta enables, fire those whose head is not yet satisfied in the instance
// as it stood at the round's start, adding each head fact the instance lacks
// to the next delta, and append that delta to the instance at the barrier.
// It terminates when the delta is empty. onlyFrom restricts the FIRST round's
// trigger collection to rules with index ≥ onlyFrom (0 = all rules); later
// rounds always consider the whole set, which is what makes the restriction
// sound — anything the filtered round derives is re-examined by every rule.
// spent is the number of firings the increment has already made before the
// fixpoint (DRed's direct rederiving sweep): they count against MaxSteps,
// and res.Steps does not include them.
func (st *State) resume(ctx context.Context, rules *dependency.Set, ins, delta *storage.Instance, onlyFrom, spent int) *Result {
	opts := st.opts
	budget := opts.MaxSteps - spent
	res := &Result{}

	st.rules = rules
	defer func() {
		st.steps += res.Steps
		st.rounds += res.Rounds
		st.nulls += res.NullsCreated
		if !res.Terminated {
			st.truncated = true
		}
	}()

	plans := st.plansFor(rules)
	// Head-plan runners, lazily created per rule: repeated applicability
	// checks reuse the register file, allocation-free. No head atom outlives
	// its firing (the next delta keeps only their arguments), so one atom
	// buffer serves.
	headRunners := make([]*eval.Runner, len(rules.Rules))
	var heads []logic.Atom

	for res.Rounds < opts.MaxRounds {
		// Round barrier: a canceled increment aborts between rounds (and at
		// the finer-grained polls below) without appending partial writes.
		if err := ctx.Err(); err != nil {
			res.Err = err
			return res
		}
		res.Rounds++

		// All reads below see the previous rounds only; all writes go to
		// the next delta. An index is built by its first Lookup.
		triggers := collectTriggers(ctx, rules, ins, delta, plans, onlyFrom)
		if err := ctx.Err(); err != nil {
			res.Err = err // collection aborted; its partial output is unusable
			return res
		}
		onlyFrom = 0 // the rule filter applies to the first round only
		if len(triggers) == 0 {
			res.Terminated = true
			return res
		}

		next := storage.NewInstance()
		truncated := false
		for i, tr := range triggers {
			// Poll ctx every 32 triggers: a firing does real work
			// (head-satisfaction join, instantiation, the write to next), so
			// the amortized poll bounds abort latency cheaply. A canceled
			// round drops next unappended: the instance stays a consistent
			// prefix (every completed round appended at its barrier), only
			// the engine bookkeeping is dirty.
			if i&0x1F == 0x1F && ctx.Err() != nil {
				res.Err = ctx.Err()
				return res
			}
			tp := plans.tmpl[tr.rule]
			if plans.headSatisfied(int(tr.rule), tr.row, ins, headRunners) {
				continue
			}
			if res.Steps >= budget {
				truncated = true
				break
			}
			res.Steps++
			ns, n := st.nullsFor(rules.Rules[tr.rule], tp, tr.row)
			res.NullsCreated += n
			heads = instantiateHead(tp, tr.row, ns, heads)
			for _, ha := range heads {
				// next takes the freshly built arguments as they are.
				if err := next.AddNew(ins, ha); err != nil {
					// The Ontology keeps rules and data on one signature
					// (construction, AddRule, AddFact); reaching here is a
					// programming error.
					panic(err)
				}
			}
		}

		// Round barrier: the facts new this round join the instance and
		// are the next round's delta.
		ins.Append(next)
		delta = next
		if truncated {
			return res
		}
		if delta.Size() == 0 {
			res.Terminated = true
			return res
		}
	}
	return res
}

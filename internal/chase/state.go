package chase

import (
	"context"

	"repro/internal/dependency"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/storage"
)

// State is the resumable engine state of an ongoing chase: the labelled-null
// generator, the null table, the rule set last chased and the cumulative
// counters. A State is created once per materialization (NewState) and
// threaded through successive Resume calls so that later increments invent
// nulls disjoint from earlier ones. A State must not be
// used by concurrent Resume calls; callers serialize maintenance (Ontology
// does so under its write lock).
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

	steps     int
	rounds    int
	nulls     int
	replans   int
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

// TotalReplans returns how many times a rule's compiled plans were re-costed
// mid-fixpoint because a relation they read transitioned empty→non-empty
// (see planSet.refresh).
func (st *State) TotalReplans() int { return st.replans }

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
// The facts go in through a shard and MergeShards, the firing loop's own
// write path: each is copied and hashed once, and the merge yields exactly
// the genuinely new ones, in the given order, as the delta.
func (st *State) ExtendCtx(ctx context.Context, rules *dependency.Set, ins *storage.Instance, facts []logic.Atom) (*Result, error) {
	sh := storage.NewShard()
	for _, f := range facts {
		if err := sh.Insert(logic.Atom{Pred: f.Pred, Args: storage.Tuple(f.Args).Clone()}); err != nil {
			return nil, err
		}
	}
	delta, err := ins.MergeShards(sh)
	if err != nil {
		return nil, err
	}
	if delta.Size() == 0 {
		return &Result{Terminated: true}, nil
	}
	return st.resume(ctx, rules, ins, delta, nil, 0, 0), nil
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
// merging the interrupted round's buffered writes: the instance is a valid
// chase prefix, but the state has consumed partial bookkeeping and is marked
// truncated — discard both and rebuild (Ontology.mutate drops its forks and
// the materialization, so readers keep the pre-mutation base).
func (st *State) ResumeCtx(ctx context.Context, rules *dependency.Set, ins, delta *storage.Instance) *Result {
	return st.resume(ctx, rules, ins, delta, nil, 0, 0)
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
	return st.resume(ctx, rules, ins, ins, nil, firstNew, 0)
}

// resume is the one fixpoint driver. Each round: collect the triggers the
// delta enables, fire those whose head is not yet satisfied into a shard
// against the frozen instance, and merge the shard into the next delta. It
// terminates when the delta is empty. onlyFrom restricts the FIRST round's
// trigger collection to rules with index ≥ onlyFrom (0 = all rules); later
// rounds always consider the whole set, which is what makes the restriction
// sound — anything the filtered round derives is re-examined by every rule.
// spent is the number of firings the increment has already made before the
// fixpoint (DRed's direct rederiving sweep): they count against MaxSteps,
// and res.Steps does not include them. plans are the repair's compiled
// plans, or nil to compile them here.
func (st *State) resume(ctx context.Context, rules *dependency.Set, ins, delta *storage.Instance, plans *planSet, onlyFrom, spent int) *Result {
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

	// Compile every rule body and head once for this Resume call; the plans
	// (atom order, access paths, register micro-programs) are reused across
	// all rounds and all delta facts. Column statistics are read from the
	// instance as of now — relations that grow later keep the order (only
	// speed is affected), except that a relation transitioning empty→
	// non-empty re-costs the rules reading it at the round barrier
	// (planSet.refresh): an order chosen when the relation was empty is
	// arbitrary, not merely stale.
	ins.EnsureIndexes()
	if plans == nil {
		plans = newPlanSet(rules, ins)
	}
	// Head-plan runners, lazily created per rule: repeated applicability
	// checks reuse the register file, allocation-free. No head atom outlives
	// its firing (the shard keeps only their arguments), so one atom buffer
	// serves.
	headRunners := make([]*eval.Runner, len(rules.Rules))
	var heads []logic.Atom

	for res.Rounds < opts.MaxRounds {
		// Round barrier: a canceled increment aborts between rounds (and at
		// the finer-grained polls below) without merging partial writes.
		if err := ctx.Err(); err != nil {
			res.Err = err
			return res
		}
		res.Rounds++

		// Freeze the instance for this round: indexes pre-built, all reads
		// below see the previous rounds only, all writes buffered in a shard.
		ins.EnsureIndexes()

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

		sh := storage.NewShard()
		truncated := false
		for i, tr := range triggers {
			// Poll ctx every 32 triggers: a firing does real work
			// (head-satisfaction join, instantiation, shard insert), so the
			// amortized poll bounds abort latency cheaply. A canceled round
			// discards its shard unmerged: the instance stays a consistent
			// prefix (every completed round merged at its barrier), only the
			// engine bookkeeping is dirty.
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
				// The shard takes the freshly built arguments as they are.
				if err := sh.Insert(ha); err != nil {
					// The Ontology keeps rules and data on one signature
					// (construction, AddRule, AddFact); reaching here is a
					// programming error.
					panic(err)
				}
			}
		}

		// Round barrier: merge the shard, producing the next delta.
		var err error
		if delta, err = ins.MergeShards(sh); err != nil {
			panic(err)
		}
		if truncated {
			return res
		}
		if delta.Size() == 0 {
			res.Terminated = true
			return res
		}
		// Round barrier: re-cost any rule whose plans were compiled while a
		// relation they read was still empty and has since been populated.
		st.replans += plans.refresh(rules, ins)
	}
	return res
}

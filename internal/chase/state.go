package chase

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/dependency"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/storage"
)

// State is the resumable engine state of an ongoing chase: the per-worker
// labelled-null generators, the semi-oblivious fired-trigger memory, and the
// cumulative counters. A State is created once per materialization
// (NewState) and threaded through successive Resume calls so that later
// increments invent nulls disjoint from earlier ones and never re-fire a
// semi-oblivious trigger. A State must not be used by concurrent Resume
// calls; callers serialize maintenance (Ontology does so under its write
// lock).
type State struct {
	opts  Options
	gens  []*logic.VarGen
	fired map[string]bool // semi-oblivious trigger memory, nil when Restricted
	prov  *provenance     // derivation graph, nil unless Options.TrackProvenance

	steps     int
	rounds    int
	nulls     int
	replans   int
	truncated bool
}

// derivation records one fired trigger: which rule, the ground body facts it
// consumed and the ground head facts it produced. trigger carries the
// semi-oblivious memory key (empty for the restricted variant) so deletion
// can clear the memory when the firing's outputs are removed.
type derivation struct {
	rule    int
	trigger string
	body    []string // fact keys (logic.Atom.Key) consumed
	heads   []logic.Atom
	dead    bool // a body fact was deleted; skip in future traversals
}

// provenance is the derivation graph accumulated across Resume calls:
// consumers maps a fact key to the derivations that used it in their body
// (the edge set the over-deletion closure walks), producers maps a fact key
// to the derivations that produced it (maintained only for the oblivious
// variant, whose fired-trigger memory must be cleared when outputs vanish).
type provenance struct {
	derivs    []derivation
	consumers map[string][]int
	producers map[string][]int // nil when Restricted
	// dead counts derivations marked dead by deletions; the generational
	// compaction sweep (State.CompactProvenance) reclaims them.
	dead int
	// compactions counts completed sweeps, for observability.
	compactions int
}

// add appends a derivation and indexes its edges.
func (p *provenance) add(d derivation) {
	di := len(p.derivs)
	p.derivs = append(p.derivs, d)
	for _, bk := range d.body {
		p.consumers[bk] = append(p.consumers[bk], di)
	}
	if p.producers != nil {
		for _, h := range d.heads {
			hk := h.Key()
			p.producers[hk] = append(p.producers[hk], di)
		}
	}
}

// NewState creates the engine state for a materialization chased with the
// given options. Variant and Parallelism are frozen for the lifetime of the
// state (the null-name space is partitioned per worker); the budgets apply
// per Resume call.
func NewState(opts Options) *State {
	opts = opts.withDefaults()
	// Per-worker null generators with disjoint prefixes ("n#…", "n1#…",
	// "n2#…"): invention needs no coordination, and names cannot collide
	// with parser-produced terms (the lexer rejects '#').
	gens := make([]*logic.VarGen, opts.Parallelism)
	for w := range gens {
		prefix := "n"
		if w > 0 {
			prefix = fmt.Sprintf("n%d", w)
		}
		gens[w] = logic.NewVarGen(prefix)
	}
	st := &State{opts: opts, gens: gens}
	if opts.Variant == Oblivious {
		st.fired = make(map[string]bool)
	}
	if opts.TrackProvenance {
		st.prov = &provenance{consumers: make(map[string][]int)}
		if opts.Variant == Oblivious {
			st.prov.producers = make(map[string][]int)
		}
	}
	return st
}

// TracksProvenance reports whether the state records derivation provenance,
// i.e. whether Delete can maintain it incrementally.
func (st *State) TracksProvenance() bool { return st.prov != nil }

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

// ProvenanceStats reports the size of the derivation graph: total recorded
// derivations, how many are dead (reclaimable by CompactProvenance), and how
// many compaction sweeps have run. All zero when provenance is off.
func (st *State) ProvenanceStats() (derivs, dead, compactions int) {
	if st.prov == nil {
		return 0, 0, 0
	}
	return len(st.prov.derivs), st.prov.dead, st.prov.compactions
}

// CompactProvenance reclaims dead derivations: deletions (DRed fact and rule
// repairs) mark the derivations they invalidate dead rather than splicing
// them out, so over a long-lived serving process the graph would otherwise
// grow without bound. The sweep rebuilds the derivation slice and both edge
// indexes from the live generation only, returning the number of derivations
// dropped. Callers serialize it with other maintenance (Ontology runs it
// under its writer lock, automatically every N mutations).
func (st *State) CompactProvenance() (dropped int) {
	p := st.prov
	if p == nil || p.dead == 0 {
		return 0
	}
	live := make([]derivation, 0, len(p.derivs)-p.dead)
	for _, d := range p.derivs {
		if !d.dead {
			live = append(live, d)
		}
	}
	dropped = len(p.derivs) - len(live)
	p.derivs = live
	p.consumers = make(map[string][]int, len(p.consumers))
	if p.producers != nil {
		p.producers = make(map[string][]int, len(p.producers))
	}
	for di := range live {
		d := &live[di]
		for _, bk := range d.body {
			p.consumers[bk] = append(p.consumers[bk], di)
		}
		if p.producers != nil {
			for _, h := range d.heads {
				hk := h.Key()
				p.producers[hk] = append(p.producers[hk], di)
			}
		}
	}
	p.dead = 0
	p.compactions++
	return dropped
}

// markDead invalidates a derivation: it is skipped by future provenance
// traversals, reclaimed by the next CompactProvenance sweep, and its
// semi-oblivious fired-memory entry is cleared so the trigger may re-fire.
func (st *State) markDead(d *derivation) {
	if d.dead {
		return
	}
	d.dead = true
	st.prov.dead++
	if d.trigger != "" {
		delete(st.fired, d.trigger)
	}
}

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
// carries the context error; the caller owns the rollback of the instance and
// must discard the state.
func (st *State) ExtendCtx(ctx context.Context, rules *dependency.Set, ins *storage.Instance, facts []logic.Atom) (*Result, error) {
	delta := storage.NewInstance()
	for _, f := range facts {
		isNew, err := ins.Insert(f)
		if err != nil {
			return nil, err
		}
		if isNew {
			if _, err := delta.Insert(f); err != nil {
				return nil, err
			}
		}
	}
	if delta.Size() == 0 {
		return &Result{Terminated: true}, nil
	}
	return st.resume(ctx, rules, ins, delta, 0), nil
}

// instantiateHead grounds the rule head for a firing of frontier: frontier
// variables from the trigger, existential head variables as fresh nulls from
// gen. Returns the ground head atoms and the null count. Shared by the
// Resume firing loop and the DRed re-derivation sweep so the invention
// discipline cannot drift between them.
func instantiateHead(rule *dependency.TGD, frontier logic.Subst, gen *logic.VarGen) ([]logic.Atom, int) {
	inst := frontier.Clone()
	nulls := 0
	for _, e := range rule.ExistentialHead() {
		inst.Bind(e, gen.FreshNull())
		nulls++
	}
	heads := make([]logic.Atom, len(rule.Head))
	for i, h := range rule.Head {
		heads[i] = inst.ApplyAtom(h)
	}
	return heads, nulls
}

// newDerivation starts the provenance record for a firing of tr: the rule,
// the semi-oblivious memory key (oblivious variant only) and the ground body
// facts the trigger consumed. Head facts are appended by the caller as they
// are instantiated.
func (st *State) newDerivation(rules *dependency.Set, tr trigger) derivation {
	rule := rules.Rules[tr.rule]
	d := derivation{rule: int(tr.rule), body: make([]string, 0, len(rule.Body))}
	if st.opts.Variant == Oblivious {
		d.trigger = triggerKey(int(tr.rule), tr.frontier, rule.Distinguished())
	}
	for _, b := range rule.Body {
		d.body = append(d.body, tr.frontier.ApplyAtom(b).Key())
	}
	return d
}

// Resume runs the chase fixpoint on the instance starting from an explicit
// delta: only triggers with at least one body atom in delta are considered in
// the first round, exactly as a semi-naive round mid-run. The instance is
// extended in place; delta must be a subset of it (for a from-scratch run
// pass the instance itself, as Run does; for incremental maintenance pass
// just the newly inserted facts, or use Extend).
//
// The restricted variant re-checks head satisfaction against the full instance —
// including everything derived by earlier Resume calls — so resuming after an
// insertion yields a valid restricted chase of the extended data: certain
// answers are identical to a from-scratch chase (property-tested).
//
// The returned Result describes this call only (Steps, Rounds, NullsCreated
// count the increment); cumulative totals live on the State. Budgets apply
// per call.
func (st *State) Resume(rules *dependency.Set, ins, delta *storage.Instance) *Result {
	return st.ResumeCtx(context.Background(), rules, ins, delta)
}

// ResumeCtx is Resume under a cancellation context. The fixpoint polls ctx
// at every round barrier, during parallel trigger collection (amortized, in
// the compiled-plan runners) and in the firing loop, so a canceled or
// deadline-expired increment aborts within a bounded amount of work. An
// aborted run returns with Result.Err set and Terminated false, WITHOUT
// merging the interrupted round's buffered writes: the instance is a valid
// chase prefix, but the state has consumed partial bookkeeping and is marked
// truncated — discard both and rebuild (Ontology.mutate rolls the base data
// back and drops the cache, so readers keep the pre-mutation snapshot).
func (st *State) ResumeCtx(ctx context.Context, rules *dependency.Set, ins, delta *storage.Instance) *Result {
	return st.resume(ctx, rules, ins, delta, 0)
}

// ExtendRules resumes the chase after rules were appended to the set (the
// AddRule maintenance step): the first round considers only the new rules —
// those at index firstNew and beyond — with the whole instance as the delta,
// since every existing fact is "new" to a rule that has never seen any.
// Their consequences then propagate through the full set semi-naively, so
// the work is proportional to what the new rules actually derive, not to a
// re-chase of the instance. The existing rules need no first-round pass: the
// instance is already their fixpoint. Unsound after a truncated run, exactly
// like Extend.
func (st *State) ExtendRules(rules *dependency.Set, ins *storage.Instance, firstNew int) *Result {
	return st.ExtendRulesCtx(context.Background(), rules, ins, firstNew)
}

// ExtendRulesCtx is ExtendRules under a cancellation context (see ResumeCtx
// for abort semantics).
func (st *State) ExtendRulesCtx(ctx context.Context, rules *dependency.Set, ins *storage.Instance, firstNew int) *Result {
	if firstNew >= rules.Len() {
		return &Result{Terminated: true} // no new rules
	}
	return st.resume(ctx, rules, ins, ins, firstNew)
}

// resume is the one fixpoint driver. Each round: collect the triggers the
// delta enables, apply the oblivious fired filter, fire the survivors
// chunked across the workers into per-worker shards, and merge the shards
// into the next delta. It terminates when the delta is empty. onlyFrom
// restricts the FIRST round's trigger collection to rules with index ≥
// onlyFrom (0 = all rules); later rounds always consider the whole set,
// which is what makes the restriction sound — anything the filtered round
// derives is re-examined by every rule.
func (st *State) resume(ctx context.Context, rules *dependency.Set, ins, delta *storage.Instance, onlyFrom int) *Result {
	opts := st.opts
	res := &Result{}
	workers := opts.Parallelism

	var steps atomic.Int64
	var truncated atomic.Bool
	var canceled atomic.Bool

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
	plans := newPlanSet(rules, ins)

	for res.Rounds < opts.MaxRounds {
		// Round barrier: a canceled increment aborts between rounds (and at
		// the finer-grained polls below) without merging partial writes.
		if err := ctx.Err(); err != nil {
			res.Err = err
			return res
		}
		res.Rounds++

		// Freeze the instance for this round: indexes pre-built, all reads
		// below are lock-free and race-free, all writes buffered in shards.
		ins.EnsureIndexes()

		triggers := collectTriggers(ctx, rules, ins, delta, workers, plans, onlyFrom)
		if err := ctx.Err(); err != nil {
			res.Err = err // collection aborted; its partial output is unusable
			return res
		}
		onlyFrom = 0 // the rule filter applies to the first round only
		if opts.Variant == Oblivious {
			// The semi-oblivious fired memory is shared engine state, so the
			// filter runs single-threaded at the barrier.
			kept := triggers[:0]
			for _, tr := range triggers {
				key := triggerKey(int(tr.rule), tr.frontier, rules.Rules[tr.rule].Distinguished())
				if !st.fired[key] {
					st.fired[key] = true
					kept = append(kept, tr)
				}
			}
			triggers = kept
		}
		if len(triggers) == 0 {
			res.Steps = int(steps.Load())
			res.Terminated = true
			return res
		}

		// Fire the round's triggers: chunked across workers, each writing
		// into a private shard against the frozen instance.
		shards := make([]*storage.Shard, workers)
		nulls := make([]int, workers)
		var provs [][]derivation
		if st.prov != nil {
			provs = make([][]derivation, workers)
		}
		runTasks(workers, workers, func(w int) {
			// Per-worker head-plan runners, lazily created per rule: repeated
			// applicability checks reuse the register file, allocation-free.
			headRunners := make([]*eval.Runner, len(rules.Rules))
			polled := 0
			for i := w; i < len(triggers); i += workers {
				if truncated.Load() || canceled.Load() {
					return
				}
				// Poll ctx every 32 firings per worker: a firing does real
				// work (head-satisfaction join, instantiation, shard insert),
				// so the amortized poll bounds abort latency without putting
				// a lock acquisition on every trigger.
				if polled++; polled&0x1F == 0 && ctx.Err() != nil {
					canceled.Store(true)
					return
				}
				tr := triggers[i]
				rule := rules.Rules[tr.rule]
				if opts.Variant == Restricted && plans.headSatisfied(int(tr.rule), tr.frontier, ins, headRunners) {
					continue
				}
				if n := steps.Add(1); int(n) > opts.MaxSteps {
					steps.Add(-1)
					truncated.Store(true)
					return
				}
				heads, n := instantiateHead(rule, tr.frontier, st.gens[w])
				nulls[w] += n
				if shards[w] == nil {
					shards[w] = storage.NewShard()
				}
				for _, ha := range heads {
					if _, err := shards[w].Insert(ha); err != nil {
						// The Ontology keeps rules and data on one signature
						// (construction, AddRule, AddFact); reaching here is
						// a programming error.
						panic(err)
					}
				}
				if st.prov != nil {
					d := st.newDerivation(rules, tr)
					d.heads = heads
					provs[w] = append(provs[w], d)
				}
			}
		})

		// A canceled round discards its buffered shards unmerged: the
		// instance stays a consistent prefix (every completed round merged
		// atomically at its barrier), only the engine bookkeeping is dirty.
		if canceled.Load() || ctx.Err() != nil {
			res.Steps = int(steps.Load())
			res.Err = ctx.Err()
			return res
		}

		// Round barrier: single-writer merge of the shards, producing the
		// next delta, and of the workers' provenance records.
		var err error
		if delta, err = ins.MergeShards(shards...); err != nil {
			panic(err)
		}
		if st.prov != nil {
			for _, ds := range provs {
				for _, d := range ds {
					st.prov.add(d)
				}
			}
		}
		for _, n := range nulls {
			res.NullsCreated += n
		}
		res.Steps = int(steps.Load())
		if truncated.Load() {
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

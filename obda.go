// Package repro is an ontology-based data access (OBDA) system over
// database dependencies, reproducing Civili's "Query Answering over
// Ontologies Specified via Database Dependencies" (SIGMOD'14 PhD Symposium).
//
// An ontology is a set of tuple-generating dependencies (TGDs) layered over
// a relational database. The package answers unions of conjunctive queries
// under certain-answer semantics, choosing between the two classical
// expansion techniques:
//
//   - query rewriting: compile the query into a first-order query (a UCQ,
//     or SQL) evaluated directly over the data — possible exactly when the
//     rule set is FO-rewritable, which the paper's SWR and WR graph-based
//     tests certify;
//   - materialization: chase the data with the rules and evaluate the query
//     over the expansion.
//
// # Quick start
//
//	ont, err := repro.Parse(`
//	    student(X) -> person(X) .
//	    person(X)  -> hasParent(X, Y) .
//	    student(alice) .
//	`)
//	report := ont.Classify()          // SWR? WR? sticky? ... strategy
//	ans, _ := ont.Answer("q(X) :- person(X) .")
//
// The internal packages expose the full machinery: internal/posgraph and
// internal/pnode implement the paper's position graph (SWR) and P-node
// graph (WR); internal/rewrite is the piece-unification rewriting engine;
// internal/chase the chase; internal/classes the competitor classifiers.
package repro

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/dependency"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/rescache"
	"repro/internal/rewrite"
	"repro/internal/sqlgen"
	"repro/internal/storage"
)

// Ontology is a set of TGDs together with a database instance.
//
// An Ontology is safe for concurrent use: any number of goroutines may call
// Answer*/Classify/Chase concurrently, and every mutator —
// AddFact/DeleteFact/LoadCSV/AddRule/RemoveRule — may run alongside them.
// Reads over a published snapshot are lock-free: the answering paths
// evaluate an immutable instance loaded through an atomic pointer, so a
// slow query neither blocks nor queues behind concurrent writers — not even
// behind a rule mutation. Only a cache miss — the first chase-mode answer,
// or one after an out-of-band Data() mutation or a budget raise — builds
// under the writer lock, single-flight and serialized with mutators; once
// published, the snapshot serves every reader until the next write.
//
// All writes flow through one unified mutation pipeline (mutate): the
// change is staged and validated in full, applied to a copy-on-write
// extension of the published snapshots, and published atomically at the
// end. Maintenance is incremental in every direction: AddFact chases only
// the newly inserted facts as a delta, DeleteFact repairs the
// materialization DRed-style (over-delete the derived closure, re-derive
// survivors), AddRule resumes the chase with the whole instance as delta
// against only the new rule, and RemoveRule over-deletes every fact whose
// provenance cites the removed rule before re-deriving survivors (see
// MaterializationStats for the counters). Dead derivations left behind by
// repairs are reclaimed by a generational provenance sweep every
// DefaultCompactEvery mutations (SetCompactEvery tunes it).
type Ontology struct {
	// rules is the current TGD set, swapped wholesale (copy-on-write, rule
	// pointers shared) by rule mutations under wmu; readers load it once per
	// operation and never observe a half-applied change.
	rules atomic.Pointer[dependency.Set]
	data  *storage.Instance

	// class caches the classification for the exact rule set it was computed
	// from: set pointer identity is the invalidation key, so any rule
	// mutation — which swaps the set — implicitly drops the entry.
	class atomic.Pointer[classEntry]

	// mu guards structural access to the canonical base instance o.data:
	// writers hold it exclusively while inserting or removing, snapshot
	// builders hold it shared while cloning. No code path holds it during
	// query evaluation, and rule mutations never take it at all (asserted by
	// TestAnswersDoNotBlockBehindWriters).
	mu sync.RWMutex
	// wmu serializes snapshot publishers — every mutation, cold
	// materialization builds and base-snapshot rebuilds — so the chase
	// engine state is single-writer and cold builds single-flight. Always
	// acquired before mu; never held while evaluating a published snapshot.
	wmu sync.Mutex

	// mat is the published chase materialization: an immutable instance plus
	// frozen counters. Readers load it once and evaluate with no lock held;
	// writers publish a copy-on-write extension (never mutate a published
	// instance) under wmu.
	mat atomic.Pointer[materialization]
	// base is the published snapshot of the base data that rewrite-mode
	// evaluation reads, maintained by writers the same copy-on-write way.
	base atomic.Pointer[baseSnapshot]
	// epoch counts completed materialization builds and extensions,
	// monotonic across cache drops and rebuilds.
	epoch atomic.Uint64
	// rulesEpoch counts rule mutations; rules-derived caches (compiled query
	// plans, classification) are keyed to it.
	rulesEpoch atomic.Uint64
	// wantProv turns on derivation-provenance recording for future
	// materialization builds. It is set (sticky) by the first DeleteFact or
	// RemoveRule, so ontologies that never delete pay nothing for the graph;
	// the first deletion pays one rebuild, after which repairs are
	// incremental.
	wantProv atomic.Bool
	// fullRebuilds counts every time a published materialization was dropped
	// — RemoveRule on a provenance-less cache, a repair that became
	// impossible, a canceled mutation's rollback, an out-of-band Data()
	// mutation — forcing the next chase-mode answer to rebuild from scratch.
	// Surfaced through MaterializationStats so the formerly silent rebuild
	// penalty is observable.
	fullRebuilds atomic.Uint64
	// prunedProbes counts evaluation-side partition pruning: join probes
	// that a plan over a P > 1 materialization confined to a single
	// sub-instance because the partitioning column was bound. Accumulated
	// live by every Answer* call (eval.Options.Pruned sink) and surfaced
	// through MaterializationStats.Partition.
	prunedProbes atomic.Uint64

	// planEpoch counts snapshot publications (materializations and base
	// snapshots alike); the compiled-plan cache generation is keyed to it
	// (together with rulesEpoch), so plans compiled against a retired
	// snapshot are dropped wholesale.
	planEpoch atomic.Uint64
	// planCache holds the compiled query plans for the current epoch, keyed
	// by canonical query string. Server-style workloads re-answering the
	// same (or α-equivalent) queries hit warm plans and skip the planner.
	planCache atomic.Pointer[planCache]

	// ansBudget is the answer-view cache byte budget; <= 0 disables the
	// cache entirely (the library default — servers and CLIs opt in via
	// their -cache flag and SetAnswerCacheBudget).
	ansBudget atomic.Int64
	// ansCache is the published answer-view cache generation: completed
	// deduplicated answer sets keyed by canonical query + options, valid
	// only while planEpoch and rulesEpoch still match the generation they
	// were stored under (readers must load both — enforced by the
	// epochcache analyzer, like planCache). Insert-only mutations maintain
	// the views incrementally in mutate's publish phase; every other
	// mutation invalidates them by generation mismatch.
	ansCache atomic.Pointer[rescache.Cache]
	// ansStats carries the answer-cache counters across generations.
	ansStats rescache.Stats

	// compactEvery and mutCount drive the generational provenance sweep: a
	// mutation whose count reaches the interval compacts the engine's
	// derivation graph before publishing. Both are guarded by wmu
	// (SetCompactEvery takes it).
	compactEvery int
	mutCount     int
}

// classEntry caches one classification, pinned to the exact rule set it was
// computed from.
type classEntry struct {
	rules  *dependency.Set
	report *core.Report
}

// DefaultCompactEvery is how many mutations may elapse between generational
// provenance-compaction sweeps (see SetCompactEvery).
const DefaultCompactEvery = 64

// New wires an already-built rule set and database instance into an
// Ontology — the programmatic counterpart of Parse for callers (servers,
// generators, tests) that assemble components directly. The Ontology takes
// ownership of data: mutate it only through the Ontology afterwards.
func New(rules *dependency.Set, data *storage.Instance) *Ontology {
	return newOntology(rules, data)
}

// newOntology wires a rule set and an instance into an Ontology.
func newOntology(rules *dependency.Set, data *storage.Instance) *Ontology {
	o := &Ontology{data: data, compactEvery: DefaultCompactEvery}
	o.rules.Store(rules)
	o.ansBudget.Store(defaultAnswerCacheBudget)
	return o
}

// planCache maps canonical query strings to plans compiled against one
// (snapshot, rule set) generation: rulesEpoch joins the snapshot epoch in
// the key because rule mutations change what a rewritten query means even
// when the base instance is untouched. Entries additionally pin the exact
// store they were compiled for, so a reader still evaluating a just-retired
// snapshot can never be served plans whose frozen statistics and resolved
// order belong to a different generation.
type planCache struct {
	epoch      uint64
	rulesEpoch uint64
	mu         sync.RWMutex
	m          map[string]*cachedPlans
}

type cachedPlans struct {
	// store pins the snapshot: an entry only serves a caller evaluating the
	// identical store.
	store storage.Store
	plans []*eval.Plan
}

// Planner selects the join-order strategy used by query evaluation; see
// eval.Planner. The zero value resolves to the package default (cost-based).
type Planner = eval.Planner

// Planner strategies, re-exported for Options and CLI flags.
const (
	PlannerDefault = eval.PlannerDefault
	PlannerGreedy  = eval.PlannerGreedy
	PlannerCost    = eval.PlannerCost
)

// ParsePlanner parses a -planner flag value ("greedy" or "cost").
func ParsePlanner(s string) (Planner, error) { return eval.ParsePlanner(s) }

// JoinStrategy selects the join strategy used by query evaluation and the
// chase; see eval.JoinStrategy. The zero value resolves to the package
// default (cost-gated composite hash joins).
type JoinStrategy = eval.JoinStrategy

// Join strategies, re-exported for Options and CLI flags.
const (
	JoinDefault = eval.JoinDefault
	JoinAuto    = eval.JoinAuto
	JoinNested  = eval.JoinNested
	JoinHash    = eval.JoinHash
)

// ParseJoin parses a -join flag value ("auto", "nested" or "hash").
func ParseJoin(s string) (JoinStrategy, error) { return eval.ParseJoin(s) }

// evalUCQ evaluates a union over a published snapshot through the
// compiled-plan cache: the UCQ is compiled once per (canonical query,
// planner, snapshot) and repeated queries run the cached plans directly.
func (o *Ontology) evalUCQ(u *query.UCQ, store storage.Store, opts eval.Options) *eval.Answers {
	ans, _ := eval.RunPlansCtx(context.Background(), o.compiledPlans(u, store, opts.Planner, opts.Join), u.Arity(), store, opts)
	return ans
}

// plansFor returns the plans for u over store: through the cache when the
// store is a published snapshot, compiled directly otherwise — no later query
// can hit an entry pinning a store that was never published, so caching it
// would only pollute.
func (o *Ontology) plansFor(u *query.UCQ, store storage.Store, published bool, planner eval.Planner, join eval.JoinStrategy) []*eval.Plan {
	if !published {
		return eval.CompileUCQ(u, store, planner, join)
	}
	return o.compiledPlans(u, store, planner, join)
}

// compiledPlans returns the plans for u over store, from the cache when warm.
// Lock-free fast path aside from a short read-lock on the epoch's map; a
// miss compiles outside any lock (compilation only reads the immutable
// snapshot) and publishes the entry for the next caller.
func (o *Ontology) compiledPlans(u *query.UCQ, store storage.Store, planner eval.Planner, join eval.JoinStrategy) []*eval.Plan {
	epoch := o.planEpoch.Load()
	repoch := o.rulesEpoch.Load()
	pc := o.planCache.Load()
	if pc == nil || pc.epoch != epoch || pc.rulesEpoch != repoch {
		fresh := &planCache{epoch: epoch, rulesEpoch: repoch, m: make(map[string]*cachedPlans)}
		if o.planCache.CompareAndSwap(pc, fresh) {
			pc = fresh
		} else {
			pc = o.planCache.Load()
		}
	}
	key := planKey(u, planner, join)
	pc.mu.RLock()
	e := pc.m[key]
	pc.mu.RUnlock()
	if e != nil && e.store == store {
		return e.plans
	}
	plans := eval.CompileUCQ(u, store, planner, join)
	pc.mu.Lock()
	pc.m[key] = &cachedPlans{store: store, plans: plans}
	pc.mu.Unlock()
	return plans
}

// planKey builds the cache key: the resolved planner and join strategies
// plus the canonical (renaming- and body-order-invariant) form of every
// disjunct.
func planKey(u *query.UCQ, planner eval.Planner, join eval.JoinStrategy) string {
	var b strings.Builder
	b.WriteByte('0' + byte(planner.Effective()))
	b.WriteByte('0' + byte(join.Effective()))
	for _, q := range u.CQs {
		b.WriteByte('\n')
		b.WriteString(q.DedupKey())
	}
	return b.String()
}

// materialization is the published chase expansion plus the resumable engine
// state (null generators, semi-oblivious memory, provenance, counters) that
// maintains it across AddFact/DeleteFact deltas. The instance and the
// counter fields are immutable once published; state is only ever touched by
// writers serialized under Ontology.wmu.
type materialization struct {
	// store is the expansion, in Options.Partitions partitions; a request
	// for a different partition count rebuilds.
	store storage.Store
	state *chase.State
	// terminated mirrors the last increment's fixpoint flag; a truncated
	// cache is only served to callers whose budgets cannot do better.
	terminated bool
	// baseMut is o.data.Mutations() when the cache was last built or
	// extended; a mismatch means the base data was mutated out-of-band (via
	// Data()), so the cache must be rebuilt rather than served stale. A
	// counter, not a size: balanced insert/delete pairs move it.
	baseMut uint64
	// steps/rounds/nulls freeze the engine's cumulative counters at publish
	// time so readers never touch the writer-owned state.
	steps, rounds, nulls int
	// lastSteps/lastRounds describe the most recent build or increment.
	lastSteps, lastRounds int
	// provDerivs/provDead/compactions freeze the provenance-graph size, its
	// dead (compactable) portion and the completed sweep count.
	provDerivs, provDead, compactions int
	// pstats freezes the chase driver's cumulative locality counters.
	pstats chase.PartitionStats
}

// baseSnapshot is the published immutable view of the base data serving
// rewrite-mode evaluation, tagged with the mutation count it reflects.
type baseSnapshot struct {
	ins     *storage.Instance
	baseMut uint64
}

// usable reports whether the published cache can serve a request with the
// given (defaulted) budgets against the current base data: the data must not
// have been mutated since the cache last saw it, the partition count must
// match the request's (answers are identical either way; the caller asked
// for that layout's locality and pruning), and a truncated cache only serves requests
// whose budgets are no larger than the ones it was built with (a larger
// budget could derive more). A terminated fixpoint serves any budget.
func (m *materialization) usable(copts chase.Options, dataMut uint64) bool {
	if m.baseMut != dataMut {
		return false
	}
	if m.store.NumParts() != copts.Partitions {
		return false
	}
	if m.terminated {
		return true
	}
	built := m.state.Options() // immutable after NewState; safe for readers
	return copts.MaxSteps <= built.MaxSteps && copts.MaxRounds <= built.MaxRounds
}

// Parse builds an Ontology from a program text containing TGDs and
// (optionally) ground facts. Query clauses in the text are rejected — pass
// queries to Answer/Rewrite instead.
func Parse(src string) (*Ontology, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Queries) != 0 {
		return nil, fmt.Errorf("repro: ontology text contains %d query clauses; pass queries to Answer", len(prog.Queries))
	}
	rules, err := prog.RuleSet()
	if err != nil {
		return nil, err
	}
	if _, err := rules.Predicates(); err != nil {
		return nil, err
	}
	data, err := storage.FromAtoms(prog.Facts)
	if err != nil {
		return nil, err
	}
	return newOntology(rules, data), nil
}

// MustParse is Parse panicking on error; for tests and examples.
func MustParse(src string) *Ontology {
	o, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return o
}

// ParseFiles builds an Ontology from a rules file and zero or more data
// files.
func ParseFiles(rulesPath string, dataPaths ...string) (*Ontology, error) {
	prog, err := parser.ParseFile(rulesPath)
	if err != nil {
		return nil, err
	}
	rules, err := prog.RuleSet()
	if err != nil {
		return nil, err
	}
	o := newOntology(rules, storage.NewInstance())
	for _, f := range prog.Facts {
		if err := o.data.InsertAtom(f); err != nil {
			return nil, err
		}
	}
	for _, p := range dataPaths {
		dp, err := parser.ParseFile(p)
		if err != nil {
			return nil, err
		}
		if len(dp.Rules) != 0 || len(dp.Queries) != 0 {
			return nil, fmt.Errorf("%s: data file contains rules or queries", p)
		}
		for _, f := range dp.Facts {
			if err := o.data.InsertAtom(f); err != nil {
				return nil, err
			}
		}
	}
	return o, nil
}

// Rules returns the ontology's current TGD set. Rule mutations (AddRule,
// RemoveRule) replace the set wholesale, so the returned value is an
// immutable snapshot: it never changes under the caller.
func (o *Ontology) Rules() *dependency.Set { return o.rules.Load() }

// Data returns the ontology's canonical database instance. Treat it as
// read-only: mutate the ontology through AddFact/DeleteFact/LoadCSV, which
// maintain the published snapshots incrementally. Out-of-band mutations are
// detected through the instance's monotonic mutation counter (so even
// balanced insert/delete pairs are caught) and force a full rebuild on the
// next answer — but they race with concurrent Answer and mutator calls.
func (o *Ontology) Data() *storage.Instance { return o.data }

// mutation is one staged change to the ontology flowing through the unified
// write pipeline: any combination of fact insertions, fact deletions, rule
// additions and one rule removal. Every mutator — AddFact, DeleteFact,
// LoadCSV, AddRule, RemoveRule — builds a mutation and hands it to mutate,
// which runs the same stage → validate → apply → publish sequence over
// copy-on-write snapshots.
type mutation struct {
	addFacts []logic.Atom
	delFacts []logic.Atom
	addRules []*dependency.TGD
	dropRule string // label of the rule to remove; "" = none
}

// mutationResult reports what a mutation actually changed.
type mutationResult struct {
	addedFacts   int // genuinely new base facts
	removedFacts int // base facts that were present and removed
}

// mutate is the unified write pipeline. Under the writer lock it
//
//  1. stages and validates the whole mutation — rule arities against the
//     set's signature and the stored relations, fact arities against the
//     published expansion — before anything is touched, so a rejected
//     mutation is a strict no-op;
//  2. applies it: rule removal first (DRed rule-keyed over-deletion +
//     re-derivation via chase.State.DeleteRule), then rule additions (the
//     whole instance as delta against only the new rules via
//     chase.State.ExtendRules), then fact deletions (chase.State.Delete),
//     then fact insertions (chase.State.Extend) — each step maintaining the
//     same copy-on-write extension of the published materialization, or
//     dropping it when incremental repair is impossible (truncated cache,
//     missing provenance);
//  3. publishes: the rule set is swapped (bumping rulesEpoch, invalidating
//     classification and compiled plans), the base snapshot is extended for
//     fact deltas, the repaired materialization is published atomically —
//     concurrent readers keep the previous snapshot throughout — and every
//     compactEvery-th mutation first runs the generational provenance sweep.
//
// Cancellation is honored at step boundaries and inside every chase-driven
// apply step (the engines poll ctx at amortized intervals). An aborted
// mutation publishes nothing and rolls the canonical base data back to its
// pre-mutation contents — facts it had inserted are removed again, facts it
// had removed are re-inserted — so subsequent answers are identical to ones
// computed before the mutation started. The chase engine state a canceled
// step may have half-repaired is discarded along with the cached
// materialization (rebuilt lazily from the restored base data). Once every
// step has completed, the mutation commits even if ctx expires during
// publication — like a database commit, the point of no return is the start
// of the publish phase.
func (o *Ontology) mutate(ctx context.Context, mut mutation) (mutationResult, error) {
	var res mutationResult
	if err := ctx.Err(); err != nil {
		return res, err // strict no-op: nothing staged, nothing touched
	}
	o.wmu.Lock()
	defer o.wmu.Unlock()
	o.dropStaleSnapshots()

	// --- stage & validate ---
	oldRules := o.rules.Load()
	afterDrop := oldRules
	dropIdx := -1
	if mut.dropRule != "" {
		if dropIdx = oldRules.IndexOfLabel(mut.dropRule); dropIdx < 0 {
			return res, fmt.Errorf("repro: no rule labeled %q", mut.dropRule)
		}
		var err error
		if afterDrop, err = oldRules.WithoutRule(dropIdx); err != nil {
			return res, err
		}
	}
	newRules := afterDrop
	for _, r := range mut.addRules {
		var err error
		if newRules, err = newRules.WithRule(r); err != nil {
			return res, err
		}
	}
	if len(mut.addRules) > 0 {
		if err := o.checkRuleArities(newRules); err != nil {
			return res, err
		}
	}
	stagedAdds, err := o.stageFacts(mut.addFacts)
	if err != nil {
		return res, err
	}

	// --- apply ---
	w := o.beginMatWork()
	if dropIdx >= 0 {
		// Future builds must record provenance so later rule removals can
		// repair incrementally instead of rebuilding (sticky, like DeleteFact).
		o.wantProv.Store(true)
		o.applyRuleDrop(ctx, w, afterDrop, dropIdx)
	}
	if len(mut.addRules) > 0 {
		o.applyRuleAdd(ctx, w, newRules, afterDrop.Len())
	}
	if w.ctxErr != nil {
		// A rule step was canceled mid-repair. No base data has changed yet;
		// discard the poisoned engine state and publish nothing.
		return mutationResult{}, o.abortMutation(w, nil, nil)
	}
	var removed []logic.Atom
	if len(mut.delFacts) > 0 {
		if err := ctx.Err(); err != nil {
			w.ctxErr = err // canceled between steps: base data still untouched
			return mutationResult{}, o.abortMutation(w, nil, nil)
		}
		o.mu.Lock()
		for _, f := range mut.delFacts {
			// Remove is idempotent: a duplicated fact in the batch removes once.
			if o.data.Remove(f) {
				removed = append(removed, f)
			}
		}
		o.mu.Unlock()
		res.removedFacts = len(removed)
		if len(removed) > 0 {
			o.wantProv.Store(true)
			o.applyFactDelete(ctx, w, newRules, removed)
			if w.ctxErr != nil {
				return mutationResult{}, o.abortMutation(w, nil, removed)
			}
		}
	}
	var added []logic.Atom
	if len(stagedAdds) > 0 {
		if err := ctx.Err(); err != nil {
			w.ctxErr = err
			return mutationResult{}, o.abortMutation(w, nil, removed)
		}
		var err error
		if added, _, err = o.commitInserts(stagedAdds); err != nil {
			// Unreachable after staging; commitInserts rolled the batch back.
			// Publish nothing and drop any half-repaired materialization.
			if w.touched {
				o.dropMat()
			}
			return res, err
		}
		res.addedFacts = len(added)
		o.applyFactInsert(ctx, w, newRules, added)
		if w.ctxErr != nil {
			return mutationResult{}, o.abortMutation(w, added, removed)
		}
	}

	// --- publish ---
	if newRules != oldRules {
		o.rules.Store(newRules)
		o.rulesEpoch.Add(1)
		o.planEpoch.Add(1) // compiled plans are rules-derived state
		o.class.Store(nil)
	}
	oldMat := o.mat.Load()
	oldBase := o.base.Load()
	dataMut := o.data.Mutations()
	o.updateBaseSnapshot(added, removed, dataMut)
	o.mutCount++
	if w.live && o.compactEvery > 0 && o.mutCount >= o.compactEvery {
		w.state.CompactProvenance()
		o.mutCount = 0
	}
	switch {
	case w.touched:
		o.publishMat(w.store, w.state, w.terminated, dataMut, w.steps, w.rounds)
	case w.had && !w.live:
		// Maintenance became impossible (truncated cache, missing
		// provenance): rebuild lazily, and count the formerly silent full
		// rebuild so MaterializationStats.FullRebuilds surfaces the penalty.
		o.dropMat()
	}
	if newRules == oldRules && len(removed) == 0 {
		// Insert-only commit: answer views are carried across the delta
		// instead of dropped (inserts only ever add CQ answers).
		o.maintainAnswerViews(added, oldMat, oldBase, dataMut)
	} else {
		// Deletions and rule mutations already invalidate every view by
		// generation mismatch; dropping the cache just reclaims it eagerly.
		o.ansCache.Store(nil)
	}
	return res, w.err
}

// dropMat discards the published materialization and counts the drop: the
// next chase-mode answer pays a full rebuild. Every drop site routes through
// here so MaterializationStats.FullRebuilds reflects the true rebuild debt.
func (o *Ontology) dropMat() {
	o.mat.Store(nil)
	o.fullRebuilds.Add(1)
}

// matWork is the in-flight copy-on-write materialization a mutation edits
// before publishing: every apply step threads it, so a multi-part mutation
// repairs one extension and publishes once.
type matWork struct {
	// store is the copy-on-write extension under repair, in the published
	// materialization's layout.
	store         storage.Store
	state         *chase.State
	terminated    bool
	steps, rounds int  // accumulated across this mutation's steps
	live          bool // a maintainable work-set is in hand
	had           bool // a materialization was published at entry
	touched       bool // at least one step edited the work-set
	err           error
	// ctxErr is the context error that aborted an apply step; when set the
	// mutation must roll back and publish nothing (see Ontology.abortMutation).
	ctxErr error
}

// abortMutation unwinds a mutation whose apply step was canceled: base facts
// the mutation inserted are removed again, base facts it removed are
// re-inserted, and any chase engine state a canceled step may have touched is
// discarded together with the cached materialization (the canceled round
// never merged, so the published instance itself was never corrupted — but
// the engine's fired-trigger memory and provenance are mid-repair and cannot
// be trusted). The published base snapshot self-invalidates through the
// mutation counter. The next answer rebuilds from the restored base data,
// yielding exactly the pre-mutation answers. Requires o.wmu.
func (o *Ontology) abortMutation(w *matWork, added, removed []logic.Atom) error {
	if len(added) > 0 || len(removed) > 0 {
		o.mu.Lock()
		for _, a := range added {
			o.data.Remove(a)
		}
		for _, a := range removed {
			// Re-insert cannot fail: the fact was stored under this arity
			// moments ago and o.wmu serializes writers.
			o.data.Insert(a)
		}
		o.mu.Unlock()
	}
	if w.had {
		o.dropMat()
	}
	return w.ctxErr
}

// beginMatWork loads the published materialization and opens a copy-on-write
// extension for the mutation's apply steps; with nothing published the
// work-set starts dead and every step is a no-op. Requires o.wmu.
func (o *Ontology) beginMatWork() *matWork {
	m := o.mat.Load()
	if m == nil {
		return &matWork{}
	}
	return &matWork{
		store:      m.store.Fork(),
		state:      m.state,
		terminated: m.terminated,
		live:       true,
		had:        true,
	}
}

// drop abandons maintenance: the published materialization is stale and the
// next answer rebuilds it from the base data.
func (w *matWork) drop() {
	w.live = false
	w.touched = false
}

// record folds one apply step's chase increment into the work-set. A step
// aborted by context cancellation (res.Err) poisons the work-set instead:
// the mutation unwinds through Ontology.abortMutation.
func (w *matWork) record(res *chase.Result) {
	if res.Err != nil {
		w.ctxErr = res.Err
		w.drop()
		return
	}
	w.touched = true
	w.terminated = res.Terminated
	w.steps += res.Steps
	w.rounds += res.Rounds
}

// repairableWork reports whether the work-set can absorb a DRed repair; a
// truncated cache cannot (triggers were dropped), and one built without
// provenance has nothing to walk — both drop, and the caller's sticky
// wantProv makes the lazily rebuilt cache repairable next time.
func (w *matWork) repairableWork() bool {
	if !w.live {
		return false
	}
	if !w.terminated || !w.state.TracksProvenance() {
		w.drop()
		return false
	}
	return true
}

// applyRuleDrop repairs the work-set after a rule removal: every fact whose
// provenance cites the removed rule is over-deleted, survivors re-derived
// against the surviving set, stored rule indices remapped. Requires o.wmu.
func (o *Ontology) applyRuleDrop(ctx context.Context, w *matWork, afterDrop *dependency.Set, dropIdx int) {
	if !w.repairableWork() {
		return
	}
	dres, err := w.state.DeleteRuleCtx(ctx, afterDrop, w.store, dropIdx, o.data)
	if err != nil {
		w.drop()
		return
	}
	w.record(dres.Result)
}

// applyRuleAdd extends the work-set with newly appended rules by resuming
// the chase with the whole instance as the delta against only those rules —
// work proportional to what the new rules derive. Requires o.wmu.
func (o *Ontology) applyRuleAdd(ctx context.Context, w *matWork, newRules *dependency.Set, firstNew int) {
	if !w.live {
		return
	}
	if !w.terminated {
		w.drop() // a truncated cache cannot be extended soundly
		return
	}
	w.record(w.state.ExtendRulesCtx(ctx, newRules, w.store, firstNew))
}

// applyFactDelete repairs the work-set DRed-style after base facts were
// removed from the canonical data. Requires o.wmu.
func (o *Ontology) applyFactDelete(ctx context.Context, w *matWork, rules *dependency.Set, removed []logic.Atom) {
	if !w.repairableWork() {
		return
	}
	dres, err := w.state.DeleteCtx(ctx, rules, w.store, removed, o.data)
	if err != nil {
		w.drop() // the base removal stands; the next answer rebuilds
		return
	}
	w.record(dres.Result)
}

// applyFactInsert folds newly inserted base facts into the work-set by
// resuming the chase with just those facts as the delta. Requires o.wmu.
func (o *Ontology) applyFactInsert(ctx context.Context, w *matWork, rules *dependency.Set, added []logic.Atom) {
	if !w.live {
		return
	}
	if !w.terminated {
		w.drop() // a truncated cache cannot be extended soundly
		return
	}
	res, err := w.state.ExtendCtx(ctx, rules, w.store, added)
	if err != nil {
		w.drop()
		w.err = err
		return
	}
	w.record(res)
}

// checkRuleArities verifies that a mutated rule set's signature agrees with
// the arities of the relations already stored (published expansion first,
// which is a superset of the base data). Requires o.wmu.
func (o *Ontology) checkRuleArities(rules *dependency.Set) error {
	sig, err := rules.Predicates()
	if err != nil {
		return err
	}
	stored := o.storedRelations()
	for pred, arity := range sig {
		if rel := stored.Relation(pred); rel != nil && rel.Arity() != arity {
			return fmt.Errorf("repro: rule uses %s with arity %d, stored relation has %d", pred, arity, rel.Arity())
		}
	}
	return nil
}

// storedRelations returns an instance naming every stored relation, for
// arity validation: partition 0 of the published expansion (a superset of the
// base data; by the alignment invariant it sees every relation), or the base
// data when nothing is published. Requires o.wmu.
func (o *Ontology) storedRelations() *storage.Instance {
	if m := o.mat.Load(); m != nil {
		return m.store.Part(0)
	}
	return o.data
}

// AddFact inserts ground facts, parsed from text like `person(alice) .`.
// The batch is staged and validated in full before the ontology is touched,
// so AddFact is all-or-nothing: a rejected batch leaves data and snapshots
// unchanged. When a chase materialization is published, it is maintained
// incrementally: only the genuinely new facts are chased as a delta against
// a copy-on-write extension of the published instance (restricted-chase
// head checks run against the full cache), so the cost is proportional to
// the consequences of the insertion, not to the instance, and concurrent
// readers keep evaluating over the previous snapshot meanwhile.
// Classification is unaffected (it depends on rules only).
func (o *Ontology) AddFact(src string) error {
	return o.AddFactCtx(context.Background(), src)
}

// AddFactCtx is AddFact under a cancellation context: a canceled or
// deadline-expired insertion aborts mid-chase, rolls the base data back and
// publishes nothing, so subsequent answers are identical to pre-mutation
// ones (see mutate). A ctx that is already done at entry is a strict no-op.
func (o *Ontology) AddFactCtx(ctx context.Context, src string) error {
	facts, err := parser.ParseFacts(src)
	if err != nil {
		return err
	}
	_, err = o.mutate(ctx, mutation{addFacts: facts})
	return err
}

// AddFactAtoms inserts a batch of already-parsed ground atoms under a
// cancellation context, reporting how many were genuinely new. It is the
// batching entry point for serving layers that coalesce concurrent writers'
// facts into one staged batch per chase delta; semantics are exactly
// AddFactCtx's (all-or-nothing staging, incremental delta chase, rollback on
// cancellation).
func (o *Ontology) AddFactAtoms(ctx context.Context, facts []logic.Atom) (int, error) {
	res, err := o.mutate(ctx, mutation{addFacts: facts})
	return res.addedFacts, err
}

// DeleteFact removes ground base facts, parsed like AddFact's input, and
// reports how many were actually present (absent facts are no-ops). The
// published materialization is repaired DRed-style instead of discarded:
// the derived closure of the removed facts is over-deleted via the chase's
// recorded provenance, then survivors are re-derived against the remaining
// instance — work proportional to the consequences of the deletion, not to
// the instance (see chase.DeleteResult). A fact that is also derivable from
// the surviving base stays in the expansion, exactly as a from-scratch
// chase would keep it. Concurrent readers keep the previous snapshot until
// the repaired one is published.
func (o *Ontology) DeleteFact(src string) (int, error) {
	return o.DeleteFactCtx(context.Background(), src)
}

// DeleteFactCtx is DeleteFact under a cancellation context: a canceled
// DRed repair re-inserts the removed base facts and publishes nothing, so
// the deletion either completes in full or observably never happened.
func (o *Ontology) DeleteFactCtx(ctx context.Context, src string) (int, error) {
	facts, err := parser.ParseFacts(src)
	if err != nil {
		return 0, err
	}
	res, err := o.mutate(ctx, mutation{delFacts: facts})
	return res.removedFacts, err
}

// AddRule adds a single TGD, parsed from text like
// `student(X) -> person(X) .`, to the live ontology — no stop-the-world
// rebuild. The rule is validated (structure and arity consistency against
// both the rule set and the stored relations) before anything changes, and
// is assigned a fresh unique label (reported by Rules). A published
// materialization is extended incrementally: the chase resumes with the
// whole instance as the delta against only the new rule, then consequences
// propagate semi-naively — work proportional to what the rule derives, not
// to a re-chase (see MaterializationStats.LastSteps). Rules-derived caches
// (classification, compiled plans) are epoch-invalidated; concurrent
// readers keep answering over the previous snapshot throughout.
func (o *Ontology) AddRule(src string) error {
	return o.AddRuleCtx(context.Background(), src)
}

// AddRuleCtx is AddRule under a cancellation context: a canceled extension
// publishes neither the rule nor any half-derived consequences — the rule
// set, snapshots and answers stay exactly pre-mutation.
func (o *Ontology) AddRuleCtx(ctx context.Context, src string) error {
	rule, err := parser.ParseRule(src)
	if err != nil {
		return err
	}
	_, err = o.mutate(ctx, mutation{addRules: []*dependency.TGD{rule}})
	return err
}

// RemoveRule removes the rule with the given label (see Rules for the
// current labels) from the live ontology. A published materialization is
// repaired DRed-style: every fact whose provenance cites the removed rule
// is over-deleted together with its derived closure, then survivors are
// re-derived through the surviving rules — facts also derivable another way
// (or present in the base data) stay, exactly as a from-scratch chase of
// the shrunk set would have them. The first RemoveRule on a cache built
// without provenance drops it and flips recording on (sticky, shared with
// DeleteFact), so later removals repair incrementally. Concurrent readers
// never block and keep the previous snapshot until the repair publishes.
func (o *Ontology) RemoveRule(label string) error {
	return o.RemoveRuleCtx(context.Background(), label)
}

// RemoveRuleCtx is RemoveRule under a cancellation context: a canceled
// repair keeps the rule — the set is only swapped at publish time, which an
// aborted mutation never reaches.
func (o *Ontology) RemoveRuleCtx(ctx context.Context, label string) error {
	_, err := o.mutate(ctx, mutation{dropRule: label})
	return err
}

// SetCompactEvery tunes the generational provenance compaction: every n-th
// mutation reclaims the derivation-graph entries that fact and rule
// deletions have marked dead, bounding provenance memory for long-lived
// serving processes (default DefaultCompactEvery; n <= 0 disables the
// automatic sweep — CompactProvenance still runs one on demand).
func (o *Ontology) SetCompactEvery(n int) {
	o.wmu.Lock()
	defer o.wmu.Unlock()
	o.compactEvery = n
}

// CompactProvenance immediately runs one generational sweep over the chase
// engine's derivation graph, returning how many dead derivations were
// reclaimed (0 when nothing is cached, provenance is off, or nothing died).
// The published snapshot is untouched — provenance is writer-side state —
// so readers are unaffected; the stats frozen into MaterializationStats
// refresh at the next publication.
func (o *Ontology) CompactProvenance() int {
	o.wmu.Lock()
	defer o.wmu.Unlock()
	m := o.mat.Load()
	if m == nil {
		return 0
	}
	return m.state.CompactProvenance()
}

// dropStaleSnapshots discards published snapshots whose recorded mutation
// count no longer matches the base data — i.e. the data was mutated
// out-of-band via Data() since they were built. Mutators must call it
// BEFORE touching the data: extending a stale snapshot would re-align the
// counter and permanently mask the staleness, serving wrong answers.
// Requires o.wmu.
func (o *Ontology) dropStaleSnapshots() {
	mut := o.data.Mutations()
	if m := o.mat.Load(); m != nil && m.baseMut != mut {
		o.dropMat()
	}
	if s := o.base.Load(); s != nil && s.baseMut != mut {
		o.base.Store(nil)
	}
}

// stageFacts validates an AddFact batch against the published expansion (a
// superset of the base data) when one exists, staging it into a private
// instance so intra-batch arity conflicts also surface — all before the
// ontology is touched. Returns the staged batch deduplicated. Requires
// o.wmu.
func (o *Ontology) stageFacts(facts []logic.Atom) ([]logic.Atom, error) {
	staged := storage.NewInstance()
	stored := o.storedRelations()
	for _, f := range facts {
		if rel := stored.Relation(f.Pred); rel != nil && rel.Arity() != f.Arity() {
			return nil, fmt.Errorf("repro: predicate %s used with arity %d and %d", f.Pred, rel.Arity(), f.Arity())
		}
		if _, err := staged.Insert(f); err != nil {
			return nil, err // intra-batch arity conflict
		}
	}
	return staged.Atoms(), nil
}

// commitInserts applies a staged (pre-validated) batch to the canonical base
// data under the write lock, returning the genuinely new facts and the
// resulting mutation count. An insert failure — unreachable after staging —
// rolls the batch back so the all-or-nothing contract survives even a
// validation bug. Requires o.wmu.
func (o *Ontology) commitInserts(atoms []logic.Atom) (added []logic.Atom, mut uint64, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, a := range atoms {
		isNew, err := o.data.Insert(a)
		if err != nil {
			for _, b := range added {
				o.data.Remove(b)
			}
			return nil, 0, err
		}
		if isNew {
			added = append(added, a)
		}
	}
	return added, o.data.Mutations(), nil
}

// updateBaseSnapshot folds a writer's delta into the published base
// snapshot, if one exists, via copy-on-write — rewrite-mode readers of the
// previous snapshot are undisturbed. Requires o.wmu.
func (o *Ontology) updateBaseSnapshot(added, removed []logic.Atom, mut uint64) {
	s := o.base.Load()
	if s == nil || (len(added) == 0 && len(removed) == 0) {
		return
	}
	ins := s.ins.ExtendClone()
	for _, a := range added {
		if _, err := ins.Insert(a); err != nil {
			o.base.Store(nil) // unreachable after staging; rebuild lazily
			return
		}
	}
	for _, a := range removed {
		ins.Remove(a)
	}
	o.planEpoch.Add(1)
	o.base.Store(&baseSnapshot{ins: ins, baseMut: mut})
}

// publishMat freezes the engine counters into an immutable materialization
// and publishes it, bumping the epoch. Requires o.wmu.
func (o *Ontology) publishMat(store storage.Store, st *chase.State, terminated bool, baseMut uint64, lastSteps, lastRounds int) {
	o.epoch.Add(1)
	o.planEpoch.Add(1)
	derivs, dead, compactions := st.ProvenanceStats()
	o.mat.Store(&materialization{
		store:       store,
		state:       st,
		terminated:  terminated,
		baseMut:     baseMut,
		steps:       st.TotalSteps(),
		rounds:      st.TotalRounds(),
		nulls:       st.TotalNulls(),
		lastSteps:   lastSteps,
		lastRounds:  lastRounds,
		provDerivs:  derivs,
		provDead:    dead,
		compactions: compactions,
		pstats:      st.PartitionTotals(),
	})
}

// snapshotBase returns the published immutable base snapshot, building it
// from the canonical data on first use or after out-of-band mutation.
// Evaluators read the result with no lock held; writers keep it current
// copy-on-write (updateBaseSnapshot).
func (o *Ontology) snapshotBase() *storage.Instance {
	if s := o.base.Load(); s != nil && s.baseMut == o.data.Mutations() {
		return s.ins
	}
	o.wmu.Lock()
	defer o.wmu.Unlock()
	if s := o.base.Load(); s != nil && s.baseMut == o.data.Mutations() {
		return s.ins // rebuilt while we queued
	}
	o.mu.RLock()
	ins := o.data.Clone()
	mut := o.data.Mutations()
	o.mu.RUnlock()
	o.planEpoch.Add(1)
	o.base.Store(&baseSnapshot{ins: ins, baseMut: mut})
	return ins
}

// Classify runs every class test of the paper's landscape (simple, Linear,
// Multilinear, Sticky, Sticky-Join, Guarded, Domain-Restricted,
// Weakly-Acyclic, Acyclic-GRD, SWR, WR) and recommends an answering
// strategy. The report is cached per rule set: a rule mutation swaps the set
// and thereby invalidates the entry, so Classify never serves a
// pre-mutation landscape (regression-tested). Lock-free; concurrent callers
// may compute the same report once each, which is benign.
func (o *Ontology) Classify() *core.Report {
	rules := o.rules.Load()
	if e := o.class.Load(); e != nil && e.rules == rules {
		return e.report
	}
	rep := core.Classify(rules)
	o.class.Store(&classEntry{rules: rules, report: rep})
	return rep
}

// Rewriting is a compiled first-order rewriting of a query.
type Rewriting struct {
	// UCQ is the rewriting as a union of conjunctive queries.
	UCQ *query.UCQ
	// Complete reports whether the rewriting reached a fixpoint; when
	// false (non-FO-rewritable input hit its budget), evaluating it yields
	// a sound subset of the certain answers.
	Complete bool
	// Stats carries the engine's counters.
	Stats *rewrite.Result
}

// SQL renders the rewriting as a SQL statement over tables named after the
// predicates (columns c1..ck).
func (r *Rewriting) SQL() (string, error) {
	return sqlgen.UCQ(r.UCQ, sqlgen.Options{Distinct: true, Pretty: true})
}

// String renders the rewriting as UCQ clauses.
func (r *Rewriting) String() string { return r.UCQ.String() }

// ParseQuery parses a single conjunctive query clause such as
// `q(X) :- person(X), hasParent(X, Y) .`.
func ParseQuery(src string) (*query.CQ, error) {
	pq, err := parser.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return query.New(pq.Head, pq.Body)
}

// Rewrite compiles the query into a first-order rewriting with the default
// engine options.
func (o *Ontology) Rewrite(querySrc string) (*Rewriting, error) {
	q, err := ParseQuery(querySrc)
	if err != nil {
		return nil, err
	}
	return o.RewriteCQ(q), nil
}

// RewriteCtx is Rewrite under a cancellation context: the rewriting loop
// checks ctx between pool entries, so a canceled or deadline-expired
// compilation stops promptly and returns the context error instead of a
// partial rewriting.
func (o *Ontology) RewriteCtx(ctx context.Context, querySrc string) (*Rewriting, error) {
	q, err := ParseQuery(querySrc)
	if err != nil {
		return nil, err
	}
	rw := o.rewriteCQCtx(ctx, q, 0)
	if rw.Stats.Err != nil {
		return nil, rw.Stats.Err
	}
	return rw, nil
}

// RewriteCQ compiles an already-parsed query.
func (o *Ontology) RewriteCQ(q *query.CQ) *Rewriting {
	return o.rewriteCQ(q, 0)
}

// rewriteCQ compiles q with the default engine options, optionally
// overriding the kept-CQ budget (0 keeps the default).
func (o *Ontology) rewriteCQ(q *query.CQ, maxCQs int) *Rewriting {
	return o.rewriteCQCtx(context.Background(), q, maxCQs)
}

// rewriteCQCtx compiles q under ctx with the default engine options,
// optionally overriding the kept-CQ budget (0 keeps the default). A canceled
// run surfaces through Stats.Err with Complete false.
func (o *Ontology) rewriteCQCtx(ctx context.Context, q *query.CQ, maxCQs int) *Rewriting {
	ropts := rewrite.DefaultOptions()
	if maxCQs > 0 {
		ropts.MaxCQs = maxCQs
	}
	res := rewrite.RewriteCtx(ctx, q, o.rules.Load(), ropts)
	return &Rewriting{UCQ: res.UCQ, Complete: res.Complete, Stats: res}
}

// Answers is the set of certain-answer tuples.
type Answers = eval.Answers

// AnswerMode selects the expansion technique used by Answer.
type AnswerMode int

// Answering modes.
const (
	// ModeAuto rewrites when the classification certifies
	// FO-rewritability, otherwise chases.
	ModeAuto AnswerMode = iota
	// ModeRewrite forces query rewriting.
	ModeRewrite
	// ModeChase forces chase-based materialization.
	ModeChase
)

// Options tunes how certain answers are computed.
type Options struct {
	// Mode selects the expansion technique (default ModeAuto).
	Mode AnswerMode
	// Parallelism is the worker count used by chase materialization and by
	// UCQ evaluation: the chase fans rule applications out over a pool with
	// sharded writes, evaluation runs the CQs of the rewriting (and the
	// outer loop of each join) concurrently. 0 or 1 means sequential. Any
	// value yields the same answer set.
	Parallelism int
	// MaxSteps bounds chase trigger firings (0 = chase.DefaultMaxSteps).
	// Big workloads that legitimately exceed the default hard-fail without
	// raising it.
	MaxSteps int
	// MaxRounds bounds chase fair rounds (0 = chase.DefaultMaxRounds).
	MaxRounds int
	// MaxRewriteCQs bounds the number of CQs the rewriting engine may keep
	// (0 = the engine default). Exceeding it makes the rewriting incomplete:
	// ModeRewrite errors, ModeAuto falls back to the chase.
	MaxRewriteCQs int
	// Planner selects the join-order strategy for query evaluation and the
	// chase (PlannerDefault resolves to the cost-based planner; PlannerGreedy
	// keeps the statistics-free order as a comparison mode). Any value yields
	// the same answers.
	Planner Planner
	// Join selects the join strategy — single-column index probes
	// (JoinNested) vs. composite-key hash tables (JoinHash) — for query
	// evaluation and the chase; JoinAuto (the resolved default) lets the
	// cost model decide per atom. Any value yields the same answers.
	Join JoinStrategy
	// Limit stops answering after this many distinct answers (0 = all). The
	// limit is pushed into the streaming executor: the iterator tree stops
	// as soon as it is satisfied instead of filtering a materialized set.
	// Limit > 0 forces sequential evaluation, whose answer prefix is
	// deterministic.
	Limit int
	// NoCache bypasses the shared answer-view cache for this call: the
	// query is evaluated from scratch and the result is not stored. The
	// property tests use it to compare cached against uncached answers on
	// one ontology.
	NoCache bool
	// Partitions is the partition count P of the chase-mode materialization,
	// hash-routed on the first term position (distribution milestone 1):
	// rules the classifier proves partition-local fire with zero
	// cross-partition coordination, and query plans that bind the
	// partitioning column probe exactly one sub-instance (see
	// MaterializationStats.Partition for the counters). 0 uses the package
	// default (1 unless the test harness overrides it); 1 is the
	// unpartitioned store. Rewrite-mode answering is unaffected — it
	// evaluates the base data. Any value yields the same certain answers.
	Partitions int
}

// MaxPartitions bounds Options.Partitions where the value arrives from outside
// the program; the server and the CLI flags reject anything beyond it.
const MaxPartitions = storage.MaxPartitions

// defaultPartitions seeds Options.Partitions when callers leave it zero.
// The library default is one partition; the test harness flips it (PART env,
// read by TestMain) to run the public-API suite and the benchmarks at P > 1
// without touching their call sites.
var defaultPartitions int

// partitions resolves Options.Partitions against the package default,
// normalized to >= 1.
func (opts Options) partitions() int {
	p := opts.Partitions
	if p == 0 {
		p = defaultPartitions
	}
	if p < 1 {
		p = 1
	}
	return p
}

// chaseOptions maps Options onto a (defaulted) chase configuration.
func (opts Options) chaseOptions() chase.Options {
	co := chase.Options{
		MaxSteps:    opts.MaxSteps,
		MaxRounds:   opts.MaxRounds,
		Parallelism: opts.Parallelism,
		Planner:     opts.Planner,
		Join:        opts.Join,
		Partitions:  opts.partitions(),
	}
	if co.MaxSteps == 0 {
		co.MaxSteps = chase.DefaultMaxSteps
	}
	if co.MaxRounds == 0 {
		co.MaxRounds = chase.DefaultMaxRounds
	}
	return co
}

// evalOptions maps Options onto the evaluation configuration shared by the
// collecting and streaming answer paths; partition-pruned probes (P > 1
// materializations only) accumulate into the ontology's live counter.
func (o *Ontology) evalOptions(opts Options) eval.Options {
	return eval.Options{
		FilterNulls: true,
		Limit:       opts.Limit,
		Parallelism: opts.Parallelism,
		Planner:     opts.Planner,
		Join:        opts.Join,
		Pruned:      &o.prunedProbes,
	}
}

// Answer computes the certain answers cert(q, P, D) for the query over the
// ontology. In ModeAuto the strategy follows the classification; the
// returned mode tells which technique ran.
func (o *Ontology) Answer(querySrc string) (*Answers, error) {
	return o.AnswerOptions(querySrc, Options{})
}

// AnswerMode is Answer with an explicit technique.
func (o *Ontology) AnswerMode(querySrc string, mode AnswerMode) (*Answers, error) {
	return o.AnswerOptions(querySrc, Options{Mode: mode})
}

// AnswerOptions is Answer with explicit technique and parallelism.
func (o *Ontology) AnswerOptions(querySrc string, opts Options) (*Answers, error) {
	return o.AnswerCtx(context.Background(), querySrc, opts)
}

// AnswerCtx computes the certain answers under a cancellation context: the
// context's deadline or cancellation aborts every phase of answering — the
// rewriting loop, a cold chase materialization build, and the join execution
// itself (polled at amortized intervals, so the zero-allocation hot path is
// preserved) — returning the context error promptly. An aborted cold build
// publishes nothing and leaves every published snapshot untouched, so a
// timed-out query never corrupts the ontology's caches: the next call simply
// resumes from the same pre-call state.
func (o *Ontology) AnswerCtx(ctx context.Context, querySrc string, opts Options) (*Answers, error) {
	q, err := ParseQuery(querySrc)
	if err != nil {
		return nil, err
	}
	view, viewKey := o.lookupAnswerView(q, opts)
	if view != nil {
		return view, nil
	}
	u, store, published, err := o.resolveAnswer(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	evalOpts := o.evalOptions(opts)
	plans := o.plansFor(u, store, published, evalOpts.Planner, evalOpts.Join)
	ans, err := eval.RunPlansCtx(ctx, plans, u.Arity(), store, evalOpts)
	if err == nil && viewKey != "" && published {
		o.storeAnswerView(viewKey, u, store, ans, evalOpts.Planner, evalOpts.Join)
	}
	return ans, err
}

// Answer is one certain-answer tuple as handed to an AnswerEach consumer.
type Answer = storage.Tuple

// AnswerEach streams the certain answers to yield, one tuple at a time, as
// the executor produces them — the first answers reach the consumer while
// the join is still enumerating, and returning false from yield stops the
// iterator tree immediately. Options.Limit bounds the stream the same way.
// Every phase before the stream (rewriting, a cold materialization build)
// honors ctx exactly as AnswerCtx does, and the stream itself is abandoned
// promptly when ctx is canceled mid-enumeration, returning the context
// error. Streaming is sequential by construction (the prefix is
// deterministic); Options.Parallelism is ignored. The tuples passed to yield
// are freshly allocated — the consumer owns them. AnswerCtx is a collector
// over this same pipeline.
func (o *Ontology) AnswerEach(ctx context.Context, querySrc string, opts Options, yield func(Answer) bool) error {
	q, err := ParseQuery(querySrc)
	if err != nil {
		return err
	}
	u, store, published, err := o.resolveAnswer(ctx, q, opts)
	if err != nil {
		return err
	}
	evalOpts := o.evalOptions(opts)
	plans := o.plansFor(u, store, published, evalOpts.Planner, evalOpts.Join)
	return eval.Each(ctx, plans, store, evalOpts, yield)
}

// resolveAnswer resolves the answering mode and produces the evaluation
// input shared by the collecting (AnswerCtx) and streaming (AnswerEach)
// paths: the UCQ to run and the immutable store to run it over — the
// rewriting over the published base snapshot, or the query itself over the
// (built-on-demand) materialization in Options.Partitions partitions. The
// returned flag reports whether the store is published, i.e. safe to key
// compiled-plan cache entries to.
//
// Resolution never outlives its deadline. The exit check below covers two
// gaps the in-build polls cannot: ctx polls inside the chase are amortized,
// so a whole build can complete between them; and a build that saturates
// every P can starve the context's timer goroutine, leaving ctx.Err() nil
// long past the deadline — hence the explicit clock comparison.
func (o *Ontology) resolveAnswer(ctx context.Context, q *query.CQ, opts Options) (*query.UCQ, storage.Store, bool, error) {
	u, store, published, err := o.resolveAnswerMode(ctx, q, opts)
	if err == nil {
		err = ctx.Err()
	}
	if err == nil {
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			err = context.DeadlineExceeded
		}
	}
	if err != nil {
		return nil, nil, false, err
	}
	return u, store, published, nil
}

func (o *Ontology) resolveAnswerMode(ctx context.Context, q *query.CQ, opts Options) (*query.UCQ, storage.Store, bool, error) {
	mode := opts.Mode
	auto := mode == ModeAuto
	if auto {
		if o.Classify().FORewritable {
			mode = ModeRewrite
		} else {
			mode = ModeChase
		}
	}
	switch mode {
	case ModeRewrite:
		rw := o.rewriteCQCtx(ctx, q, opts.MaxRewriteCQs)
		if rwErr := rw.Stats.Err; rwErr != nil {
			return nil, nil, false, rwErr // canceled mid-rewriting; not a budget miss
		}
		if !rw.Complete {
			if auto {
				// ModeAuto promised an answer, not a technique: when the
				// rewriting hits its budget, fall back to materialization
				// instead of surfacing the rewriting error.
				return o.chaseForAnswer(ctx, q, opts)
			}
			return nil, nil, false, fmt.Errorf("repro: rewriting did not reach a fixpoint (budget hit); use ModeChase")
		}
		// Evaluate over the published base snapshot with no lock held: a
		// slow evaluation neither blocks writers nor queues other readers
		// behind them. Repeated queries rewrite to the same UCQ, so the
		// compiled plans come from the cache.
		return rw.UCQ, o.snapshotBase(), true, nil
	case ModeChase:
		return o.chaseForAnswer(ctx, q, opts)
	default:
		return nil, nil, false, fmt.Errorf("repro: unknown answer mode %d", mode)
	}
}

// chaseForAnswer returns the materialized store chase-mode answering
// evaluates over, building or rebuilding it when absent or unusable for the
// requested budgets. The fast path is lock-free: the published pointer is
// loaded once and the query evaluates over the immutable instance, so a slow
// evaluation neither blocks writers nor queues other readers behind them.
// Builds run under wmu (single-flight, serialized with writers — so the base
// cannot change underneath) and always serve their own result, so a build is
// never wasted and nothing can starve.
func (o *Ontology) chaseForAnswer(ctx context.Context, q *query.CQ, opts Options) (*query.UCQ, storage.Store, bool, error) {
	copts := opts.chaseOptions()
	u := query.MustNewUCQ(q)

	if m := o.mat.Load(); m != nil && m.usable(copts, o.data.Mutations()) {
		if !m.terminated {
			return nil, nil, false, budgetErr(m.lastSteps)
		}
		return u, m.store, true, nil
	}

	o.wmu.Lock()
	if m := o.mat.Load(); m != nil && m.usable(copts, o.data.Mutations()) {
		// Built while we queued; evaluate after releasing the lock.
		o.wmu.Unlock()
		if !m.terminated {
			return nil, nil, false, budgetErr(m.lastSteps)
		}
		return u, m.store, true, nil
	}
	o.mu.RLock()
	store, err := storage.NewStore(o.data, copts.Partitions, copts.PartitionCol)
	snapMut := o.data.Mutations()
	o.mu.RUnlock()
	if err != nil {
		o.wmu.Unlock()
		return nil, nil, false, err
	}
	// Record provenance only once a DeleteFact/RemoveRule has shown it is
	// needed. Rules are loaded under wmu, so the build matches the set
	// current at publication.
	copts.TrackProvenance = o.wantProv.Load()
	st := chase.NewState(copts)
	res := st.ResumeCtx(ctx, o.rules.Load(), store, store)
	if res.Err != nil {
		// Canceled mid-build: the half-chased clone and its engine state are
		// simply discarded — nothing was published, every snapshot is as it
		// was before the call.
		o.wmu.Unlock()
		return nil, nil, false, res.Err
	}
	// Publish unless the data was mutated out-of-band while we chased (a
	// legitimate writer cannot have: we hold wmu). Either way, serve our own
	// build — it is a valid chase of the data as of the clone.
	published := o.data.Mutations() == snapMut
	if published {
		o.publishMat(store, st, res.Terminated, snapMut, res.Steps, res.Rounds)
	}
	o.wmu.Unlock()
	if !res.Terminated {
		return nil, nil, false, budgetErr(res.Steps)
	}
	return u, store, published, nil
}

func budgetErr(steps int) error {
	return fmt.Errorf("repro: chase did not terminate within budget (last run: %d steps); raise Options.MaxSteps/MaxRounds", steps)
}

// MaterializationStats describes the cached chase expansion serving
// chase-mode answers.
type MaterializationStats struct {
	// Cached reports whether a materialization is currently cached.
	Cached bool
	// Epoch counts completed builds and incremental extensions, monotonic
	// across cache drops and rebuilds.
	Epoch uint64
	// Terminated mirrors the chase fixpoint flag of the cache.
	Terminated bool
	// Facts is the size of the cached expansion.
	Facts int
	// Steps, Rounds and NullsCreated are cumulative across the initial
	// build and every AddFact increment.
	Steps, Rounds, NullsCreated int
	// LastSteps and LastRounds describe only the most recent build or
	// increment — after an AddFact/AddRule they measure the delta, after a
	// DeleteFact/RemoveRule the repair, never the instance.
	LastSteps, LastRounds int
	// ProvDerivations and ProvDeadDerivations size the engine's derivation
	// graph (zero when provenance is off): total recorded derivations and
	// how many are dead — invalidated by deletions and reclaimable by the
	// generational compaction sweep. Compactions counts completed sweeps.
	// All three are frozen at publish time, like the step counters.
	ProvDerivations, ProvDeadDerivations, Compactions int
	// FullRebuilds counts every time a published materialization was dropped
	// and the next chase-mode answer had to rebuild from scratch — e.g. a
	// RemoveRule against a cache built without provenance, a repair on a
	// truncated cache, a canceled mutation's rollback, or an out-of-band
	// Data() mutation. A growing counter on a serving process is the signal
	// that incremental maintenance is being bypassed.
	FullRebuilds uint64
	// AnswerCache counts shared answer-view cache activity (hits, misses,
	// evictions, views delta-maintained across inserts, live entry bytes).
	AnswerCache AnswerCacheStats
	// Partitions is the partition count of the cached expansion (0 when
	// nothing is cached).
	Partitions int
	// Partition aggregates the partitioned engine's locality counters.
	Partition PartitionStats
}

// PartitionStats surfaces how much of the materialization's work stayed
// inside single partitions (see Options.Partitions; at P = 1 all of it).
type PartitionStats struct {
	// LocalFirings counts chase trigger firings of partition-local rules —
	// work done entirely inside one sub-instance, with zero cross-partition
	// coordination. Frozen at publish time, cumulative across the initial
	// build and every incremental extension or repair.
	LocalFirings uint64
	// ShippedTriggers counts spanning-rule triggers shipped through the
	// chase's cross-partition exchange queue (0 on a fully local rule set).
	ShippedTriggers uint64
	// PrunedProbes counts join probes confined to a single partition: the
	// chase's cross-partition runners at publish time, plus query plans that
	// bound the partitioning column during answering (accumulated live).
	PrunedProbes uint64
}

// MaterializationStats reports the state of the published materialization.
// Cached is false when none is held (never built, or dropped after a
// truncation/error); Epoch still reports the monotonic build/extension
// count in that case. Lock-free: the counters were frozen at publish time.
func (o *Ontology) MaterializationStats() MaterializationStats {
	m := o.mat.Load()
	if m == nil {
		return MaterializationStats{
			Epoch:        o.epoch.Load(),
			FullRebuilds: o.fullRebuilds.Load(),
			AnswerCache:  o.AnswerCacheStats(),
			Partition:    PartitionStats{PrunedProbes: o.prunedProbes.Load()},
		}
	}
	return MaterializationStats{
		Cached:              true,
		Epoch:               o.epoch.Load(),
		Terminated:          m.terminated,
		Facts:               m.store.Size(),
		Steps:               m.steps,
		Rounds:              m.rounds,
		NullsCreated:        m.nulls,
		LastSteps:           m.lastSteps,
		LastRounds:          m.lastRounds,
		ProvDerivations:     m.provDerivs,
		ProvDeadDerivations: m.provDead,
		Compactions:         m.compactions,
		FullRebuilds:        o.fullRebuilds.Load(),
		AnswerCache:         o.AnswerCacheStats(),
		Partitions:          m.store.NumParts(),
		Partition: PartitionStats{
			LocalFirings:    m.pstats.LocalFirings,
			ShippedTriggers: m.pstats.ShippedTriggers,
			PrunedProbes:    m.pstats.PrunedProbes + o.prunedProbes.Load(),
		},
	}
}

// Chase materializes the ontology: data expanded with every rule
// consequence (restricted chase, default budgets). Unlike chase-mode
// answering it always runs fresh and returns an instance the caller owns —
// the cached materialization is neither consulted nor touched.
func (o *Ontology) Chase() *chase.Result {
	return o.ChaseOptions(Options{})
}

// ChaseOptions is Chase with explicit worker count and budgets.
func (o *Ontology) ChaseOptions(opts Options) *chase.Result {
	return o.ChaseCtx(context.Background(), opts)
}

// ChaseCtx is ChaseOptions under a cancellation context: a canceled run
// stops at the current round barrier without merging it and reports the
// context error in Result.Err — the returned instance is a valid chase
// prefix of the data, and the ontology's own caches are untouched (the run
// is always fresh and private).
func (o *Ontology) ChaseCtx(ctx context.Context, opts Options) *chase.Result {
	copts := opts.chaseOptions()
	// Read lock suffices: copying the data synchronizes with concurrent lazy
	// index builds itself. chase.RunCtx would copy a second time, so the
	// private store is chased directly.
	o.mu.RLock()
	store, err := storage.NewStore(o.data, copts.Partitions, copts.PartitionCol)
	o.mu.RUnlock()
	if err != nil {
		return &chase.Result{Err: err}
	}
	res := chase.NewState(copts).ResumeCtx(ctx, o.rules.Load(), store, store)
	res.Instance = storage.Flatten(store)
	return res
}

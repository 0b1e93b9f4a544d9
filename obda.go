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

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/dependency"
	"repro/internal/eval"
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

// evalUCQ evaluates a union over a published snapshot through the
// compiled-plan cache: the UCQ is compiled once per (canonical query,
// snapshot) and repeated queries run the cached plans directly.
func (o *Ontology) evalUCQ(u *query.UCQ, store storage.Store, opts eval.Options) *eval.Answers {
	return eval.RunPlans(o.compiledPlans(u, store), u.Arity(), store, opts)
}

// plansFor returns the plans for u over store: through the cache when the
// store is a published snapshot, compiled directly otherwise — no later query
// can hit an entry pinning a store that was never published, so caching it
// would only pollute.
func (o *Ontology) plansFor(u *query.UCQ, store storage.Store, published bool) []*eval.Plan {
	if !published {
		return eval.CompileUCQ(u, store, eval.PlannerDefault, eval.JoinDefault)
	}
	return o.compiledPlans(u, store)
}

// compiledPlans returns the plans for u over store, from the cache when warm.
// Lock-free fast path aside from a short read-lock on the epoch's map; a
// miss compiles outside any lock (compilation only reads the immutable
// snapshot) and publishes the entry for the next caller.
func (o *Ontology) compiledPlans(u *query.UCQ, store storage.Store) []*eval.Plan {
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
	key := planKey(u)
	pc.mu.RLock()
	e := pc.m[key]
	pc.mu.RUnlock()
	if e != nil && e.store == store {
		return e.plans
	}
	plans := eval.CompileUCQ(u, store, eval.PlannerDefault, eval.JoinDefault)
	pc.mu.Lock()
	pc.m[key] = &cachedPlans{store: store, plans: plans}
	pc.mu.Unlock()
	return plans
}

// planKey builds the cache key: the canonical (renaming- and
// body-order-invariant) form of every disjunct.
func planKey(u *query.UCQ) string {
	var b strings.Builder
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

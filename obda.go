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
// Everything a reader can observe — the rule set, the base data, the chase
// materialization, the classification, the compiled plans and the cached
// answer views — hangs off one immutable snapshot behind one atomic pointer.
// A reader loads that pointer once per operation, so the pair (P, D) it
// answers cert(q, P, D) over, and every cache entry it reads or fills, belong
// to one generation by construction: nothing is cross-validated on the read
// side, and a cache entry is valid exactly as long as the snapshot it hangs
// off is reachable.
//
// An Ontology is safe for concurrent use: any number of goroutines may call
// Answer*/Classify/Chase concurrently, and every mutator —
// AddFact/DeleteFact/LoadCSV/AddRule/RemoveRule — may run alongside them.
// Reads never queue behind writers: a mutation forks the published base and
// materialization copy-on-write, applies itself to the forks, and publishes
// the next snapshot with one pointer store (publish) — or, when rejected or
// canceled, publishes nothing — while readers keep evaluating the previous
// generation, untouched. Only a cold chase materialization (the first
// chase-mode answer, or one after a budget change) builds
// under the writer lock, single-flight and serialized with mutators; once
// published it serves every reader until the next write.
//
// publish guarantees that the snapshot it installs is complete before it is
// visible (rules, base and materialization all refer to one another), that
// generations are totally ordered (every publication happens under wmu), and
// that a published snapshot is never written again except for its own lazily
// filled caches: publish freezes its base and materialized instances, so a
// write to either panics. The answer views are one of those caches: every
// publication starts empty, and a mutation that changes nothing publishes
// nothing, so it keeps the views it found.
//
// Data() and the instance passed to New are the currently published base — a
// frozen snapshot, not a live handle: mutations fork it and publish the fork,
// so an instance held across a mutation is the old generation, and a write
// through either panics.
//
// Maintenance is incremental in every direction: AddFact chases only the
// newly inserted facts as a delta, DeleteFact repairs the materialization
// DRed-style (over-delete the derived closure, re-derive survivors), AddRule
// resumes the chase with the whole instance as delta against only the new
// rule, and RemoveRule over-deletes every fact whose provenance cites the
// removed rule before re-deriving survivors (see MaterializationStats for the
// counters). Dead derivations left behind by repairs are reclaimed by a
// generational provenance sweep every DefaultCompactEvery mutations.
type Ontology struct {
	// snap is the one published pointer; only publish (and newOntology)
	// stores it.
	snap atomic.Pointer[snapshot]
	// wmu serializes publishers — every mutation and cold materialization
	// build — so the chase engine state is single-writer and cold builds
	// single-flight. Never held while evaluating a published snapshot.
	wmu sync.Mutex

	// wantProv turns on derivation-provenance recording for future
	// materialization builds. It is set (sticky) by the first DeleteFact or
	// RemoveRule, so ontologies that never delete pay nothing for the graph;
	// the first deletion pays one rebuild, after which repairs are
	// incremental.
	wantProv atomic.Bool
	// fullRebuilds counts every time a published materialization was dropped
	// — RemoveRule on a provenance-less cache, a repair that became
	// impossible, a canceled mutation — forcing the next chase-mode answer
	// to rebuild from scratch. Surfaced through MaterializationStats so the
	// rebuild penalty is observable.
	fullRebuilds atomic.Uint64

	// ansBudget is the answer-view cache byte budget; <= 0 disables the
	// cache entirely (the library default — servers and CLIs opt in via
	// their -cache flag and SetAnswerCacheBudget).
	ansBudget atomic.Int64
	// ansStats carries the answer-cache counters across generations.
	ansStats rescache.Stats

	// mutCount drives the generational provenance sweep: a mutation whose
	// count reaches DefaultCompactEvery compacts the engine's derivation
	// graph before publishing. Guarded by wmu.
	mutCount int
}

// snapshot is one published generation of the ontology. rules, base, mat and
// the counters are immutable once published; class, plans and views are
// caches of values derived from them, filled lazily by whoever needs them
// first. Only class, which depends on the rules alone, reaches the next
// generation, and only while the rules are unchanged.
type snapshot struct {
	rules *dependency.Set
	// base is the canonical base data, frozen. Mutations fork it
	// (ExtendClone) and publish the fork.
	base *storage.Instance
	// mat is the chase materialization of (rules, base), nil until a
	// chase-mode answer builds it or after a drop. matEpoch counts completed
	// builds and extensions, monotonic across drops.
	mat      *materialization
	matEpoch uint64
	// class is shared by consecutive snapshots over the same rule set.
	class *classification
	// plans holds the compiled query plans (planKey -> []*eval.Plan), so
	// workloads re-answering the same (or α-equivalent) queries skip the
	// planner; the cache dies with the snapshot.
	plans sync.Map
	// views is this generation's answer-view cache: readers that completed
	// an evaluation over this snapshot add to it by compare-and-swap. It
	// starts empty and dies with the snapshot.
	views atomic.Pointer[rescache.Cache]
}

// classification computes the report for one rule set at most once.
type classification struct {
	once   sync.Once
	report *core.Report
}

// DefaultCompactEvery is how many mutations may elapse between generational
// provenance-compaction sweeps; CompactProvenance runs one on demand.
const DefaultCompactEvery = 64

// New wires an already-built rule set and database instance into an
// Ontology — the programmatic counterpart of Parse for callers (servers,
// generators, tests) that assemble components directly. The Ontology takes
// ownership of data: it is frozen and becomes the first published base (see
// Data), so a later write to it panics — Clone it first to keep a writable
// copy.
func New(rules *dependency.Set, data *storage.Instance) *Ontology {
	return newOntology(rules, data)
}

// newOntology freezes data and publishes generation zero.
func newOntology(rules *dependency.Set, data *storage.Instance) *Ontology {
	data.Freeze()
	o := &Ontology{}
	o.snap.Store(&snapshot{rules: rules, base: data, class: new(classification)})
	return o
}

// next starts the successor of s: same contents, empty plan and answer-view
// caches. The caller edits it, then hands it to publish.
func (s *snapshot) next() *snapshot {
	return &snapshot{
		rules:    s.rules,
		base:     s.base,
		mat:      s.mat,
		matEpoch: s.matEpoch,
		class:    s.class,
	}
}

// publish installs next as the current snapshot: the only store to o.snap
// after construction. It freezes next's base and materialized instances
// first, so nothing can write a generation readers may hold. A rule change
// gives next a fresh classification slot; next's answer views are empty (see
// next). Requires o.wmu.
func (o *Ontology) publish(next *snapshot) {
	next.base.Freeze()
	if next.mat != nil {
		next.mat.store.Freeze()
	}
	if next.rules != o.snap.Load().rules {
		next.class = new(classification)
	}
	o.snap.Store(next)
}

// dropMat discards next's materialization and counts the drop: the next
// chase-mode answer pays a full rebuild. Every drop site routes through here
// so MaterializationStats.FullRebuilds reflects the true rebuild debt.
func (o *Ontology) dropMat(next *snapshot) {
	if next.mat != nil {
		next.mat = nil
		o.fullRebuilds.Add(1)
	}
}

// setMat freezes the engine counters into an immutable materialization of
// the not yet published snapshot. The engine state is the writer's: requires
// Ontology.wmu.
func (s *snapshot) setMat(store *storage.Instance, st *chase.State, terminated bool, lastSteps, lastRounds int) {
	derivs, dead, compactions := st.ProvenanceStats()
	s.matEpoch++
	s.mat = &materialization{
		store:       store,
		state:       st,
		terminated:  terminated,
		steps:       st.TotalSteps(),
		rounds:      st.TotalRounds(),
		nulls:       st.TotalNulls(),
		lastSteps:   lastSteps,
		lastRounds:  lastRounds,
		provDerivs:  derivs,
		provDead:    dead,
		compactions: compactions,
	}
}

// planKey files one snapshot's compiled plans by which of its two stores
// they were compiled for plus the canonical query: the frozen statistics and
// resolved join order inside a plan belong to that store.
type planKey struct {
	onMat bool
	ucq   string
}

// compileUCQ is eval.CompileUCQ behind a seam the plan-cache test counts
// calls through.
var compileUCQ = eval.CompileUCQ

// store returns the instance a query over this snapshot evaluates: the
// materialization or the base data.
func (s *snapshot) store(onMat bool) *storage.Instance {
	if onMat {
		return s.mat.store
	}
	return s.base
}

// plansFor returns the plans for u over one of the snapshot's stores, from
// the cache when warm. A miss compiles (compilation only reads the immutable
// snapshot; racing callers may each compile once, which is benign) and files
// the entry for the next caller.
func (s *snapshot) plansFor(u *query.UCQ, onMat bool) []*eval.Plan {
	var b strings.Builder
	for _, q := range u.CQs {
		b.WriteByte('\n')
		b.WriteString(q.DedupKey()) // renaming- and body-order-invariant
	}
	key := planKey{onMat: onMat, ucq: b.String()}
	if plans, ok := s.plans.Load(key); ok {
		return plans.([]*eval.Plan)
	}
	plans := compileUCQ(u, s.store(onMat), eval.PlannerDefault, eval.JoinDefault)
	s.plans.Store(key, plans)
	return plans
}

// evalUCQ evaluates a union over one of the snapshot's stores through its
// plan cache.
func (s *snapshot) evalUCQ(u *query.UCQ, onMat bool, opts eval.Options) *eval.Answers {
	return eval.RunPlans(s.plansFor(u, onMat), u.Arity(), s.store(onMat), opts)
}

// materialization is the chase expansion of one snapshot plus the resumable
// engine state (null generators, semi-oblivious memory, provenance, counters)
// that maintains it across mutations. The instance and the counter fields are
// immutable once published; state is only ever touched by writers serialized
// under Ontology.wmu.
type materialization struct {
	// store is the expansion.
	store *storage.Instance
	state *chase.State
	// terminated mirrors the last increment's fixpoint flag; a truncated
	// cache is only served to callers whose budgets cannot do better.
	terminated bool
	// steps/rounds/nulls freeze the engine's cumulative counters at publish
	// time so readers never touch the writer-owned state.
	steps, rounds, nulls int
	// lastSteps/lastRounds describe the most recent build or increment.
	lastSteps, lastRounds int
	// provDerivs/provDead/compactions freeze the provenance-graph size, its
	// dead (compactable) portion and the completed sweep count.
	provDerivs, provDead, compactions int
}

// usable reports whether the materialization can serve a request with the
// given (defaulted) budgets: a truncated cache only serves requests whose
// budgets are no larger than the ones it was built with (a larger budget
// could derive more). A terminated fixpoint serves any budget.
func (m *materialization) usable(copts chase.Options) bool {
	if m == nil {
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
// queries to Answer/Rewrite instead — and so is a predicate used with two
// arities anywhere in the program.
func Parse(src string) (*Ontology, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return fromProgram(prog)
}

// fromProgram is the construction path of Parse and ParseFiles: it rejects
// query clauses and builds the rule set and the data, then validates them
// together (see build).
func fromProgram(prog *parser.Program) (*Ontology, error) {
	if len(prog.Queries) != 0 {
		return nil, fmt.Errorf("repro: ontology text contains %d query clauses; pass queries to Answer", len(prog.Queries))
	}
	rules, err := prog.RuleSet()
	if err != nil {
		return nil, err
	}
	data, err := storage.FromAtoms(prog.Facts)
	if err != nil {
		return nil, err
	}
	return build(rules, data)
}

// build checks that every predicate has one arity across the rules and the
// data — the invariant the chase relies on, which AddRule and AddFact keep —
// and publishes generation zero. Every constructor that can reject its input
// ends here.
func build(rules *dependency.Set, data *storage.Instance) (*Ontology, error) {
	if err := checkRuleArities(rules, data); err != nil {
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
// files, validated exactly like Parse's program text.
func ParseFiles(rulesPath string, dataPaths ...string) (*Ontology, error) {
	prog, err := parser.ParseFile(rulesPath)
	if err != nil {
		return nil, err
	}
	for _, p := range dataPaths {
		dp, err := parser.ParseFile(p)
		if err != nil {
			return nil, err
		}
		if len(dp.Rules) != 0 || len(dp.Queries) != 0 {
			return nil, fmt.Errorf("%s: data file contains rules or queries", p)
		}
		prog.Facts = append(prog.Facts, dp.Facts...)
	}
	return fromProgram(prog)
}

// Rules returns the ontology's current TGD set. Rule mutations (AddRule,
// RemoveRule) publish a new set, so the returned value is an immutable
// snapshot: it never changes under the caller.
func (o *Ontology) Rules() *dependency.Set { return o.snap.Load().rules }

// Data returns the currently published base instance — a frozen snapshot,
// not a live handle: AddFact/DeleteFact/LoadCSV fork it copy-on-write and
// publish the fork, so an instance held across a mutation is the old
// generation and never changes again. A write through it panics; Clone or
// ExtendClone it for a writable copy.
func (o *Ontology) Data() *storage.Instance { return o.snap.Load().base }

// Classify runs every class test of the paper's landscape (simple, Linear,
// Multilinear, Sticky, Sticky-Join, Guarded, Domain-Restricted,
// Weakly-Acyclic, Acyclic-GRD, SWR, WR) and recommends an answering
// strategy. The report is computed once per rule set and shared by every
// snapshot over it: a rule mutation publishes a snapshot with an empty slot,
// so Classify never serves a pre-mutation landscape (regression-tested).
func (o *Ontology) Classify() *core.Report { return o.snap.Load().classify() }

func (s *snapshot) classify() *core.Report {
	s.class.once.Do(func() { s.class.report = core.Classify(s.rules) })
	return s.class.report
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
	rw := rewriteCQCtx(ctx, q, o.Rules(), 0)
	if rw.Stats.Err != nil {
		return nil, rw.Stats.Err
	}
	return rw, nil
}

// RewriteCQ compiles an already-parsed query.
func (o *Ontology) RewriteCQ(q *query.CQ) *Rewriting {
	return rewriteCQCtx(context.Background(), q, o.Rules(), 0)
}

// rewriteCQCtx compiles q against rules under ctx with the default engine
// options, optionally overriding the kept-CQ budget (0 keeps the default). A
// canceled run surfaces through Stats.Err with Complete false.
func rewriteCQCtx(ctx context.Context, q *query.CQ, rules *dependency.Set, maxCQs int) *Rewriting {
	ropts := rewrite.DefaultOptions()
	if maxCQs > 0 {
		ropts.MaxCQs = maxCQs
	}
	res := rewrite.RewriteCtx(ctx, q, rules, ropts)
	return &Rewriting{UCQ: res.UCQ, Complete: res.Complete, Stats: res}
}

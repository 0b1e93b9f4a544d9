package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chase"
	"repro/internal/eval"
	"repro/internal/query"
	"repro/internal/storage"
)

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

// MaxPartitions and MaxParallelism bound Options.Partitions and
// Options.Parallelism where the value arrives from outside the program; the
// server and the CLI flags reject anything beyond them. Both are allocations
// the caller sizes: a partition is a whole instance, a worker a goroutine
// with its own null generator, write shards and evaluation work units.
const (
	MaxPartitions  = storage.MaxPartitions
	MaxParallelism = 64
)

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
	s, err := o.openAnswer(ctx, querySrc, opts)
	if err != nil {
		return nil, err
	}
	return s.collect(ctx)
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
// are shared with the answer set the stream builds (and, on a cache hit,
// with the cached view): read-only, like Answers.Tuples. A stream that runs
// to the end leaves its answer set behind as a cached view; one yield stops
// early stores nothing.
func (o *Ontology) AnswerEach(ctx context.Context, querySrc string, opts Options, yield func(Answer) bool) error {
	s, err := o.openAnswer(ctx, querySrc, opts)
	if err != nil {
		return err
	}
	for {
		t, ok, err := s.Next(ctx)
		if err != nil || !ok {
			return err
		}
		if !yield(t) {
			s.close()
			return nil
		}
	}
}

// resolveAnswer resolves the answering mode and produces the evaluation
// input of openAnswer: the UCQ to run and the immutable store to run it over
// — the rewriting over the published base snapshot, or the query itself over
// the (built-on-demand) materialization in Options.Partitions partitions.
// The returned flag reports whether the store is published, i.e. safe to
// key compiled-plan cache entries to.
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

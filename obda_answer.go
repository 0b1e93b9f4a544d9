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

// AnswerMode selects the expansion technique used by AnswerCtx and
// AnswerEach.
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
	// Deprecated: Parallelism is ignored. The chase runs on one worker.
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
	Limit int
	// NoCache bypasses the shared answer-view cache for this call: the
	// query is evaluated from scratch and the result is not stored. The
	// property tests use it to compare cached against uncached answers on
	// one ontology.
	NoCache bool
}

// chaseOptions maps Options onto a (defaulted) chase configuration.
func (opts Options) chaseOptions() chase.Options {
	co := chase.Options{
		MaxSteps:  opts.MaxSteps,
		MaxRounds: opts.MaxRounds,
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
// collecting and streaming answer paths.
func evalOptions(opts Options) eval.Options {
	return eval.Options{FilterNulls: true, Limit: opts.Limit}
}

// AnswerCtx computes the certain answers cert(q, P, D) for the query over
// the ontology. In ModeAuto the strategy follows the classification. The
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
// error. The answer order is deterministic. The tuples passed to yield
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
		t, ok, err := s.next(ctx)
		if err != nil || !ok {
			return err
		}
		if !yield(t) {
			s.close()
			return nil
		}
	}
}

// resolveAnswer resolves the answering mode against the reader's snapshot and
// produces the evaluation input of openAnswer: the UCQ to run, the snapshot
// to run it over and which of its stores — the rewriting over the base data,
// or the query itself over the materialization. The snapshot returned is s
// unless the materialization had to be built, which publishes a successor.
//
// Resolution never outlives its deadline. The exit check below covers two
// gaps the in-build polls cannot: ctx polls inside the chase are amortized,
// so a whole build can complete between them; and a build that saturates
// every P can starve the context's timer goroutine, leaving ctx.Err() nil
// long past the deadline — hence the explicit clock comparison.
func (o *Ontology) resolveAnswer(ctx context.Context, s *snapshot, q *query.CQ, opts Options) (*query.UCQ, *snapshot, bool, error) {
	u, s, onMat, err := o.resolveAnswerMode(ctx, s, q, opts)
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
	return u, s, onMat, nil
}

func (o *Ontology) resolveAnswerMode(ctx context.Context, s *snapshot, q *query.CQ, opts Options) (*query.UCQ, *snapshot, bool, error) {
	mode := opts.Mode
	auto := mode == ModeAuto
	if auto {
		if s.classify().FORewritable {
			mode = ModeRewrite
		} else {
			mode = ModeChase
		}
	}
	switch mode {
	case ModeRewrite:
		rw := rewriteCQCtx(ctx, q, s.rules, opts.MaxRewriteCQs)
		if rwErr := rw.Stats.Err; rwErr != nil {
			return nil, nil, false, rwErr // canceled mid-rewriting; not a budget miss
		}
		if !rw.Complete {
			if auto {
				// ModeAuto promised an answer, not a technique: when the
				// rewriting hits its budget, fall back to materialization
				// instead of surfacing the rewriting error.
				return o.chaseForAnswer(ctx, s, q, opts)
			}
			return nil, nil, false, fmt.Errorf("repro: rewriting did not reach a fixpoint (budget hit); use ModeChase")
		}
		// The rewriting was compiled from s.rules and evaluates over s.base:
		// one generation, no lock held. Repeated queries rewrite to the same
		// UCQ, so the compiled plans come from the snapshot's cache.
		return rw.UCQ, s, false, nil
	case ModeChase:
		return o.chaseForAnswer(ctx, s, q, opts)
	default:
		return nil, nil, false, fmt.Errorf("repro: unknown answer mode %d", mode)
	}
}

// chaseForAnswer returns the snapshot whose materialization chase-mode
// answering evaluates over: s itself when its materialization serves the
// requested budgets — the lock-free fast path — or the successor a cold
// build publishes.
func (o *Ontology) chaseForAnswer(ctx context.Context, s *snapshot, q *query.CQ, opts Options) (*query.UCQ, *snapshot, bool, error) {
	copts := opts.chaseOptions()
	if !s.mat.usable(copts) {
		var err error
		if s, err = o.buildMat(ctx, copts); err != nil {
			return nil, nil, false, err
		}
	}
	if !s.mat.terminated {
		return nil, nil, false, fmt.Errorf("repro: chase did not terminate within budget (last run: %d steps); raise Options.MaxSteps/MaxRounds", s.mat.lastSteps)
	}
	return query.MustNewUCQ(q), s, true, nil
}

// buildMat chases the current base under wmu — single-flight, serialized
// with writers, so nothing can be published underneath it — and publishes the
// result as the next snapshot's materialization. The chase runs over a
// copy-on-write fork of the (frozen) base, not a copy: the barrier's Append
// privatizes a base relation only when the chase derives a new fact into it,
// so every other base relation is stored once and shared by the base and
// the materialization. A canceled build publishes nothing: the half-chased
// fork and its engine state are simply discarded.
func (o *Ontology) buildMat(ctx context.Context, copts chase.Options) (*snapshot, error) {
	o.wmu.Lock()
	defer o.wmu.Unlock()
	s := o.snap.Load()
	if s.mat.usable(copts) {
		return s, nil // built while we queued
	}
	store := s.base.ExtendClone()
	st := chase.NewState(copts)
	res := st.ResumeCtx(ctx, s.rules, store, store)
	if res.Err != nil {
		return nil, res.Err
	}
	next := s.next()
	next.setMat(store, st, res.Terminated, res.Steps, res.Rounds)
	o.publish(next)
	return next, nil
}

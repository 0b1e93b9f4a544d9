package repro

import (
	"context"

	"repro/internal/chase"
)

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
	// truncated cache, or a canceled mutation. A growing counter on a
	// serving process is the signal that incremental maintenance is being
	// bypassed.
	FullRebuilds uint64
	// AnswerCache counts answer-view cache activity (hits, misses,
	// evictions, the current snapshot's entries and bytes).
	AnswerCache AnswerCacheStats
}

// MaterializationStats reports the state of the published materialization.
// Cached is false when none is held (never built, or dropped after a
// truncation/error); Epoch still reports the monotonic build/extension
// count in that case. Lock-free: the counters were frozen at publish time.
func (o *Ontology) MaterializationStats() MaterializationStats {
	s := o.snap.Load()
	m := s.mat
	if m == nil {
		return MaterializationStats{
			Epoch:        s.matEpoch,
			FullRebuilds: o.fullRebuilds.Load(),
			AnswerCache:  o.AnswerCacheStats(),
		}
	}
	return MaterializationStats{
		Cached:              true,
		Epoch:               s.matEpoch,
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
	s := o.snap.Load()
	return chase.RunCtx(ctx, s.rules, s.base, opts.chaseOptions())
}

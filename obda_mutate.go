package repro

import (
	"context"
	"fmt"

	"repro/internal/chase"
	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/storage"
)

// mutation is one staged change to the ontology flowing through the unified
// write pipeline: any combination of fact insertions, fact deletions, rule
// additions and one rule removal. Every mutator — AddFact, DeleteFact,
// LoadCSV, AddRule, RemoveRule — builds a mutation and hands it to mutate,
// which runs the same stage → validate → apply → publish sequence over
// copy-on-write forks of the published snapshot.
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
//     published expansion — before anything is forked, so a rejected
//     mutation is a strict no-op;
//  2. applies it to copy-on-write forks of the published base and
//     materialization: rule removal first (DRed rule-keyed over-deletion +
//     re-derivation via chase.State.DeleteRule), then rule additions (the
//     whole instance as delta against only the new rules via
//     chase.State.ExtendRules), then fact deletions (chase.State.Delete),
//     then fact insertions (chase.State.Extend) — each step repairing the
//     same fork of the materialization, or giving it up when incremental
//     repair is impossible (truncated cache, missing provenance);
//  3. publishes the next snapshot — new rule set, forked base, repaired
//     materialization, empty answer views — with one pointer store;
//     concurrent readers keep the previous snapshot throughout. Every
//     DefaultCompactEvery-th mutation first runs the generational provenance
//     sweep.
//     A mutation that changes nothing (every inserted fact already present,
//     every deleted fact absent) publishes nothing, so the published snapshot
//     and its answer views stay in place.
//
// Cancellation is honored at step boundaries and inside every chase-driven
// apply step (the engines poll ctx at amortized intervals). An aborted
// mutation throws its forks away: nothing it did was ever visible, so
// subsequent answers are identical to ones computed before it started. The
// one thing a canceled step may have half-repaired is the chase engine state
// the published materialization shares with its forks, so that
// materialization is dropped (rebuilt lazily from the untouched base, counted
// in FullRebuilds). Once every step has completed, the mutation commits even
// if ctx expires during publication — like a database commit, the point of
// no return is the start of the publish phase.
func (o *Ontology) mutate(ctx context.Context, mut mutation) (mutationResult, error) {
	var res mutationResult
	if err := ctx.Err(); err != nil {
		return res, err // strict no-op: nothing staged, nothing touched
	}
	o.wmu.Lock()
	defer o.wmu.Unlock()
	prev := o.snap.Load()

	// --- stage & validate ---
	afterDrop := prev.rules
	dropIdx := -1
	if mut.dropRule != "" {
		if dropIdx = prev.rules.IndexOfLabel(mut.dropRule); dropIdx < 0 {
			return res, fmt.Errorf("repro: no rule labeled %q", mut.dropRule)
		}
		var err error
		if afterDrop, err = prev.rules.WithoutRule(dropIdx); err != nil {
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
		if err := checkRuleArities(newRules, prev.storedRelations()); err != nil {
			return res, err
		}
	}
	stagedAdds, err := prev.stageFacts(newRules, mut.addFacts)
	if err != nil {
		return res, err
	}

	// --- apply ---
	w := beginMatWork(prev.mat)
	next := prev.next()
	// abort throws the forks away. The one thing it publishes is the loss of
	// the materialization whose engine state a canceled step may have
	// poisoned.
	abort := func(err error) (mutationResult, error) {
		if w.had {
			o.dropMat(next)
			o.publish(next)
		}
		return mutationResult{}, err
	}
	if dropIdx >= 0 {
		// Future builds must record provenance so later rule removals can
		// repair incrementally instead of rebuilding (sticky, like DeleteFact).
		o.wantProv.Store(true)
		w.applyRuleDrop(ctx, afterDrop, dropIdx, prev.base)
	}
	if len(mut.addRules) > 0 {
		w.applyRuleAdd(ctx, newRules, afterDrop.Len())
	}
	if w.ctxErr != nil {
		return abort(w.ctxErr)
	}
	// Forked unconditionally (a map of relation pointers): a variable that is
	// only sometimes the published base is what snapshotmut exists to refuse.
	base := prev.base.ExtendClone()
	var removed, added []logic.Atom
	if len(mut.delFacts) > 0 {
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
		for _, f := range mut.delFacts {
			// Remove is idempotent: a duplicated fact in the batch removes once.
			if base.Remove(f) {
				removed = append(removed, f)
			}
		}
		if len(removed) > 0 {
			o.wantProv.Store(true)
			w.applyFactDelete(ctx, newRules, removed, base)
			if w.ctxErr != nil {
				return abort(w.ctxErr)
			}
		}
	}
	if len(stagedAdds) > 0 {
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
		for _, f := range stagedAdds {
			// Cannot fail: staging checked every arity against the stored
			// relations, a superset of the base.
			if isNew, _ := base.Insert(f); isNew {
				added = append(added, f)
			}
		}
		if len(added) > 0 {
			w.applyFactInsert(ctx, newRules, added)
			if w.ctxErr != nil {
				return abort(w.ctxErr)
			}
		}
	}

	// --- publish ---
	if newRules == prev.rules && len(added)+len(removed) == 0 {
		return res, nil // nothing changed: keep the published snapshot
	}
	res = mutationResult{addedFacts: len(added), removedFacts: len(removed)}
	next.rules = newRules
	if len(added)+len(removed) > 0 {
		next.base = base
	}
	o.mutCount++
	if w.live && o.mutCount >= DefaultCompactEvery {
		w.state.CompactProvenance()
		o.mutCount = 0
	}
	switch {
	case w.touched:
		next.setMat(w.store, w.state, w.terminated, w.steps, w.rounds)
	case !w.live:
		// Maintenance became impossible (truncated cache, missing
		// provenance): rebuild lazily, and count it so
		// MaterializationStats.FullRebuilds surfaces the penalty.
		o.dropMat(next)
	}
	o.publish(next)
	return res, w.err
}

// matWork is the in-flight copy-on-write materialization a mutation edits
// before publishing: every apply step threads it, so a multi-part mutation
// repairs one extension and publishes once.
type matWork struct {
	// store is the copy-on-write extension under repair.
	store         *storage.Instance
	state         *chase.State
	terminated    bool
	steps, rounds int  // accumulated across this mutation's steps
	live          bool // a maintainable work-set is in hand
	had           bool // a materialization was published at entry
	touched       bool // at least one step edited the work-set
	err           error
	// ctxErr is the context error that aborted an apply step; when set the
	// mutation aborts (see Ontology.mutate).
	ctxErr error
}

// beginMatWork opens a copy-on-write fork of the published materialization
// for the mutation's apply steps; with nothing published the work-set starts
// dead and every step is a no-op.
func beginMatWork(m *materialization) *matWork {
	if m == nil {
		return &matWork{}
	}
	return &matWork{
		store:      m.store.ExtendClone(),
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
// the mutation aborts and publishes at most the loss of the materialization.
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
// against the surviving set, stored rule indices remapped.
func (w *matWork) applyRuleDrop(ctx context.Context, afterDrop *dependency.Set, dropIdx int, base *storage.Instance) {
	if !w.repairableWork() {
		return
	}
	dres, err := w.state.DeleteRuleCtx(ctx, afterDrop, w.store, dropIdx, base)
	if err != nil {
		w.drop()
		return
	}
	w.record(dres.Result)
}

// applyRuleAdd extends the work-set with newly appended rules by resuming
// the chase with the whole instance as the delta against only those rules —
// work proportional to what the new rules derive.
func (w *matWork) applyRuleAdd(ctx context.Context, newRules *dependency.Set, firstNew int) {
	if !w.live {
		return
	}
	if !w.terminated {
		w.drop() // a truncated cache cannot be extended soundly
		return
	}
	w.record(w.state.ExtendRulesCtx(ctx, newRules, w.store, firstNew))
}

// applyFactDelete repairs the work-set DRed-style after facts were removed
// from base, the mutation's fork of the base data.
func (w *matWork) applyFactDelete(ctx context.Context, rules *dependency.Set, removed []logic.Atom, base *storage.Instance) {
	if !w.repairableWork() {
		return
	}
	dres, err := w.state.DeleteCtx(ctx, rules, w.store, removed, base)
	if err != nil {
		w.drop() // the base removal stands; the next answer rebuilds
		return
	}
	w.record(dres.Result)
}

// applyFactInsert folds newly inserted base facts into the work-set by
// resuming the chase with just those facts as the delta.
func (w *matWork) applyFactInsert(ctx context.Context, rules *dependency.Set, added []logic.Atom) {
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

// checkRuleArities verifies that a rule set's signature is consistent and
// agrees with the arities of the relations stored in an instance (for a
// mutation, the published expansion, which is a superset of the base data).
func checkRuleArities(rules *dependency.Set, stored *storage.Instance) error {
	sig, err := rules.Predicates()
	if err != nil {
		return err
	}
	for pred, arity := range sig {
		if rel := stored.Relation(pred); rel != nil && rel.Arity() != arity {
			return fmt.Errorf("repro: rule uses %s with arity %d, stored relation has %d", pred, arity, rel.Arity())
		}
	}
	return nil
}

// storedRelations returns an instance naming every stored relation, for
// arity validation: the published expansion (a superset of the base data),
// or the base data when nothing is materialized.
func (s *snapshot) storedRelations() *storage.Instance {
	if s.mat != nil {
		return s.mat.store
	}
	return s.base
}

// AddFact inserts ground facts, parsed from text like `person(alice) .`.
// The batch is staged and validated in full before the ontology is touched,
// so AddFact is all-or-nothing: a rejected batch publishes nothing. When a chase materialization is published, it is maintained
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
// deadline-expired insertion aborts mid-chase and publishes none of its
// facts, so subsequent answers are identical to pre-mutation ones (see
// mutate). A ctx that is already done at entry is a strict no-op.
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
// AddFactCtx's (all-or-nothing staging, incremental delta chase, nothing
// published on cancellation).
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
// DRed repair publishes none of the removals, so the deletion either
// completes in full or observably never happened.
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
// to a re-chase (see MaterializationStats.LastSteps). The snapshot it
// publishes starts with empty caches (classification, compiled plans, answer
// views); concurrent readers keep answering over the previous one
// throughout.
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

// CompactProvenance immediately runs one generational sweep over the chase
// engine's derivation graph, returning how many dead derivations were
// reclaimed (0 when nothing is cached, provenance is off, or nothing died).
// The published snapshot is untouched — provenance is writer-side state —
// so readers are unaffected; the stats frozen into MaterializationStats
// refresh at the next publication.
func (o *Ontology) CompactProvenance() int {
	o.wmu.Lock()
	defer o.wmu.Unlock()
	m := o.snap.Load().mat
	if m == nil {
		return 0
	}
	return m.state.CompactProvenance()
}

// stageFacts validates an AddFact batch against the published expansion (a
// superset of the base data) when one exists, and against the signature of
// rules for predicates nothing stores yet, staging it into a private
// instance so intra-batch arity conflicts also surface — all before the
// ontology is touched. A stored relation already agrees with the rules
// (construction and AddRule check it), so the signature is only derived
// when a fact needs it. Returns the staged batch deduplicated.
func (s *snapshot) stageFacts(rules *dependency.Set, facts []logic.Atom) ([]logic.Atom, error) {
	staged := storage.NewInstance()
	stored := s.storedRelations()
	var sig map[string]int
	for _, f := range facts {
		arity, ok := 0, false
		if rel := stored.Relation(f.Pred); rel != nil {
			arity, ok = rel.Arity(), true
		} else {
			if sig == nil {
				sig, _ = rules.Predicates() // consistent: checked before publication
			}
			arity, ok = sig[f.Pred]
		}
		if ok && arity != f.Arity() {
			return nil, fmt.Errorf("repro: predicate %s used with arity %d and %d", f.Pred, arity, f.Arity())
		}
		if _, err := staged.Insert(f); err != nil {
			return nil, err // intra-batch arity conflict
		}
	}
	return staged.Atoms(), nil
}

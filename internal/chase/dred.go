// DRed-style incremental deletion for a maintained chase (Gupta, Mumick &
// Subrahmanian's delete-and-rederive, adapted to TGDs with labelled nulls).
//
// Deleting base facts from a chased instance proceeds in two sweeps over the
// derivation provenance the engine records when Options.TrackProvenance is
// set:
//
//  1. over-deletion — the requested facts are removed together with the
//     closure of everything derived through them: walking the consumer edges
//     of the provenance graph, any firing that consumed a removed fact has
//     its outputs removed too, transitively. This over-approximates (a
//     removed fact may have an independent surviving derivation);
//  2. re-derivation — triggers that can restore removed facts are found
//     semi-naively from the removed facts themselves: each removed fact is
//     unified with rule heads and the rule bodies are joined against the
//     surviving instance from that seed, so the work is proportional to the
//     deleted closure, not to the instance. Survivor triggers re-fire under
//     the usual variant discipline and their consequences propagate through
//     an ordinary semi-naive Resume.
//
// The result is a valid chase of the remaining base data: certain answers
// equal a from-scratch chase (property-tested for both variants, sequential
// and parallel states). Only labelled-null names and redundant-null counts
// may differ, exactly as for parallelism.
package chase

import (
	"context"
	"fmt"

	"repro/internal/dependency"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/storage"
)

// DeleteResult describes one incremental deletion pass — of base facts
// (Delete) or of a whole rule's contribution (DeleteRule).
type DeleteResult struct {
	// Requested counts the facts removed directly: for Delete, the facts
	// named by the caller that were present (absent facts are no-ops); for
	// DeleteRule, the outputs of the removed rule's firings.
	Requested int
	// OverDeleted counts the additional facts removed by the closure sweep.
	OverDeleted int
	// Rederived counts removed facts restored directly by a surviving
	// trigger in the re-derivation sweep (facts restored deeper in the
	// propagation are not counted here).
	Rederived int
	// Result is the re-derivation increment: Steps/Rounds/NullsCreated count
	// the refires (direct and propagated), and Terminated reports whether
	// the propagation reached its fixpoint within budget.
	Result *Result
}

// Delete removes the given ground base facts from ins and incrementally
// repairs the chase: the deleted closure is over-deleted via the recorded
// provenance, then survivors are re-derived against the remaining instance.
// The work is proportional to the consequences of the deletion (see
// DeleteResult's counters), not to the instance.
//
// base is the surviving base data (with the requested facts already gone):
// the closure sweep never removes a fact still present in it, since a base
// fact needs no derivation — without the guard, a fact that is both base
// and derived would be over-deleted through its dead derivation and lost
// (rules cannot re-derive it). nil disables the guard, for callers whose
// base facts are never also rule heads.
//
// The state must have been created with Options.TrackProvenance and must not
// be truncated (a truncated chase dropped triggers that deletion cannot
// reconsider) — either condition is an error telling the caller to rebuild
// from scratch instead. ins must be the instance this state materialized,
// possibly behind its ExtendClone.
func (st *State) Delete(rules *dependency.Set, ins *storage.Instance, facts []logic.Atom, base *storage.Instance) (*DeleteResult, error) {
	return st.DeleteCtx(context.Background(), rules, ins, facts, base)
}

// DeleteCtx is Delete under a cancellation context: the over-deletion sweep
// polls ctx between queue items and the re-derivation propagation inherits it
// (see ResumeCtx). On abort the repair is half-applied — facts removed but
// survivors not yet re-derived — so Result.Err is set and the caller must
// discard both the instance and the state and rebuild from the base data
// (Ontology.mutate rolls back and drops the cache).
func (st *State) DeleteCtx(ctx context.Context, rules *dependency.Set, ins *storage.Instance, facts []logic.Atom, base *storage.Instance) (*DeleteResult, error) {
	if err := st.repairable(); err != nil {
		return nil, err
	}
	res := &DeleteResult{Result: &Result{Terminated: true}}

	// Seed the over-deletion with the requested facts themselves.
	removed := make(map[string]bool)
	var queue []logic.Atom
	for _, f := range facts {
		if !f.IsGround() {
			return nil, fmt.Errorf("chase: cannot delete non-ground atom %v", f)
		}
		if k := f.Key(); !removed[k] && ins.Remove(f) {
			removed[k] = true
			queue = append(queue, f)
			res.Requested++
		}
	}
	if res.Requested == 0 {
		return res, nil
	}
	st.repair(ctx, rules, ins, base, queue, removed, res)
	return res, nil
}

// repair finishes a deletion seeded with the already-removed facts in queue:
// over-delete their derived closure, then re-derive survivors. A ctx abort
// between the sweeps leaves the repair half-applied and says so in
// res.Result.
func (st *State) repair(ctx context.Context, rules *dependency.Set, ins *storage.Instance, base *storage.Instance, queue []logic.Atom, removed map[string]bool, res *DeleteResult) {
	queue = st.overDelete(ctx, ins, base, queue, removed, res)
	if err := ctx.Err(); err != nil {
		st.truncated = true // half-repaired: refuse future incremental work
		res.Result.Err = err
		res.Result.Terminated = false
		return
	}
	st.rederive(ctx, rules, ins, queue, removed, res)
}

// DeleteRule removes one rule's contribution from a maintained chase — the
// maintenance step behind Ontology.RemoveRule. rules is the SURVIVING set and
// ri the removed rule's index in the previous set (surviving rules keep their
// order; indices beyond ri shift down by one).
//
// Over-deletion here is rule-keyed rather than fact-keyed: every derivation
// whose provenance cites rule ri is marked dead and its outputs removed
// (base facts are guarded exactly as in Delete), then the derived closure of
// those facts is over-deleted through the consumer edges. Stored rule
// indices — provenance derivations and semi-oblivious fired-memory keys —
// are remapped to the shrunk set, and survivors are re-derived against the
// surviving rules and propagated semi-naively. DeleteResult.Requested counts
// the facts removed directly from the rule's firings, OverDeleted the
// closure beyond them; the work is proportional to the removed rule's
// contribution, not to the instance.
func (st *State) DeleteRule(rules *dependency.Set, ins *storage.Instance, ri int, base *storage.Instance) (*DeleteResult, error) {
	return st.DeleteRuleCtx(context.Background(), rules, ins, ri, base)
}

// DeleteRuleCtx is DeleteRule under a cancellation context, with the same
// abort semantics as DeleteCtx: on cancellation the repair is half-applied,
// Result.Err is set, the state is marked truncated, and the caller must
// discard instance and state.
func (st *State) DeleteRuleCtx(ctx context.Context, rules *dependency.Set, ins *storage.Instance, ri int, base *storage.Instance) (*DeleteResult, error) {
	if err := st.repairable(); err != nil {
		return nil, err
	}
	res := &DeleteResult{Result: &Result{Terminated: true}}

	// Rule-keyed over-deletion seed: kill every firing of the removed rule
	// and take its outputs out of the instance.
	removed := make(map[string]bool)
	var queue []logic.Atom
	for di := range st.prov.derivs {
		d := &st.prov.derivs[di]
		if d.dead || d.rule != ri {
			continue
		}
		st.markDead(d)
		for _, h := range d.heads {
			if base != nil && base.ContainsAtom(h) {
				continue // still a base fact; needs no derivation
			}
			if hk := h.Key(); !removed[hk] && ins.Remove(h) {
				removed[hk] = true
				queue = append(queue, h)
				res.Requested++
			}
		}
	}
	// The set shrank: shift every stored rule index past ri down by one so
	// provenance and fired memory keep meaning the same rules. Must happen
	// before re-derivation, which records new derivations under new indices.
	st.remapRuleIndices(ri)
	if len(queue) > 0 {
		st.repair(ctx, rules, ins, base, queue, removed, res)
	}
	return res, nil
}

// repairable reports whether the state can run an incremental DRed repair:
// it must record provenance and must not have truncated (a truncated chase
// dropped triggers that deletion cannot reconsider).
func (st *State) repairable() error {
	if st.prov == nil {
		return fmt.Errorf("chase: incremental deletion needs a state built with Options.TrackProvenance")
	}
	if st.truncated {
		return fmt.Errorf("chase: cannot repair a truncated chase; rebuild from scratch")
	}
	return nil
}

// overDelete is the closure sweep shared by Delete and DeleteRule: walk
// consumer edges breadth-first from the
// already-removed facts in queue, removing everything derived through a
// removed fact. Dead derivations are marked (and counted for the compaction
// sweep) so later deletions skip them, and semi-oblivious trigger memory is
// cleared for every firing that either consumed or produced a removed fact,
// so re-derivation may re-fire it. Facts still present in base are never
// removed — a base fact needs no derivation. Returns the full removed queue
// for the re-derivation sweep; res.OverDeleted counts the facts removed
// beyond the initial seeds.
func (st *State) overDelete(ctx context.Context, ins *storage.Instance, base *storage.Instance, queue []logic.Atom, removed map[string]bool, res *DeleteResult) []logic.Atom {
	for qi := 0; qi < len(queue); qi++ {
		if qi&0xFF == 0 && ctx.Err() != nil {
			return queue // canceled: half-swept, caller surfaces the abort
		}
		fk := queue[qi].Key()
		if st.prov.producers != nil {
			for _, di := range st.prov.producers[fk] {
				if t := st.prov.derivs[di].trigger; t != "" {
					delete(st.fired, t)
				}
			}
			delete(st.prov.producers, fk)
		}
		for _, di := range st.prov.consumers[fk] {
			d := &st.prov.derivs[di]
			if d.dead {
				continue
			}
			st.markDead(d)
			for _, h := range d.heads {
				if base != nil && base.ContainsAtom(h) {
					continue // still a base fact; needs no derivation
				}
				if hk := h.Key(); !removed[hk] && ins.Remove(h) {
					removed[hk] = true
					queue = append(queue, h)
					res.OverDeleted++
				}
			}
		}
		delete(st.prov.consumers, fk)
	}
	return queue
}

// rederive is the re-derivation sweep shared by Delete and DeleteRule,
// seeded by the removed facts: any trigger the deletion could have
// unsuppressed must produce (or have had its head satisfied by) a removed
// fact, so unifying rule heads with removed facts and joining the body from
// that seed enumerates every candidate without touching the unaffected part
// of the instance. Survivor triggers re-fire under the usual variant
// discipline, and the consequences of the restored facts propagate through
// an ordinary semi-naive resume; res.Result describes the whole increment.
func (st *State) rederive(ctx context.Context, rules *dependency.Set, ins *storage.Instance, removedFacts []logic.Atom, removed map[string]bool, res *DeleteResult) {
	cands := st.collectRederiveTriggers(rules, ins, removedFacts)
	delta := storage.NewInstance()
	steps, nulls, restored := 0, 0, 0
	for ci, tr := range cands {
		if ci&0x1F == 0 && ctx.Err() != nil {
			break // canceled: the propagation below reports the abort
		}
		rule := rules.Rules[tr.rule]
		if st.opts.Variant == Restricted && headSatisfied(rule, tr.frontier, ins) {
			continue
		}
		if st.opts.Variant == Oblivious {
			key := triggerKey(int(tr.rule), tr.frontier, rule.Distinguished())
			if st.fired[key] {
				continue
			}
			st.fired[key] = true
		}
		steps++
		heads, n := instantiateHead(rule, tr.frontier, st.gens[0])
		nulls += n
		for _, ha := range heads {
			added, err := ins.Insert(ha)
			if err != nil {
				panic(err) // the Ontology keeps rules and data on one signature
			}
			if added {
				if removed[ha.Key()] {
					res.Rederived++
				}
				if _, err := delta.Insert(ha); err != nil {
					panic(err)
				}
				restored++
			}
		}
		d := st.newDerivation(rules, tr)
		d.heads = heads
		st.prov.add(d)
	}
	st.steps += steps
	st.nulls += nulls

	// Propagate the restored facts semi-naively; an empty delta means the
	// deletion reached its fixpoint in the direct sweep. A ctx abort — in
	// the direct sweep above or inside the propagation — surfaces as
	// Result.Err with Terminated false, and marks the state truncated so
	// future incremental repairs refuse to build on the half-applied sweep.
	rres := &Result{Terminated: true}
	if err := ctx.Err(); err != nil {
		rres = &Result{Err: err}
		st.truncated = true
	} else if restored > 0 {
		rres = st.resume(ctx, rules, ins, delta, 0)
	}
	rres.Steps += steps
	rres.NullsCreated += nulls
	res.Result = rres
}

// remapRuleIndices rewrites every stored rule index after the rule at ri was
// removed from the set: provenance derivations and semi-oblivious fired
// memory for rules beyond ri shift down by one (their trigger keys embed the
// index, so the keys are re-prefixed), and fired entries of ri itself are
// dropped. One pass over the graph and the fired map — rule removal is rare
// next to fact maintenance.
func (st *State) remapRuleIndices(ri int) {
	for di := range st.prov.derivs {
		d := &st.prov.derivs[di]
		if d.rule > ri {
			d.rule--
			if d.trigger != "" {
				_, suffix := splitTriggerKey(d.trigger)
				d.trigger = joinTriggerKey(d.rule, suffix)
			}
		}
	}
	if st.fired == nil {
		return
	}
	nf := make(map[string]bool, len(st.fired))
	for k, v := range st.fired {
		idx, suffix := splitTriggerKey(k)
		switch {
		case idx == ri: // the removed rule's memory: drop
		case idx > ri:
			nf[joinTriggerKey(idx-1, suffix)] = v
		default:
			nf[k] = v
		}
	}
	st.fired = nf
}

// collectRederiveTriggers enumerates, deduplicated, every trigger whose
// firing could restore one of the removed facts: for each removed fact and
// each rule head atom it unifies with, the rule body is joined against the
// surviving instance starting from the unification seed. Existential head
// positions bind freely during unification but are dropped from the seed
// (they are not body variables); the full head-satisfaction check happens at
// fire time.
func (st *State) collectRederiveTriggers(rules *dependency.Set, ins *storage.Instance, removed []logic.Atom) []trigger {
	var out []trigger
	seen := make(map[int]map[string]bool)
	for _, f := range removed {
		tup := storage.Tuple(f.Args)
		for ri, rule := range rules.Rules {
			bodyVars := rule.BodyVars()
			for _, h := range rule.Head {
				if h.Pred != f.Pred || h.Arity() != f.Arity() {
					continue
				}
				seed, ok := seedFromTuple(h, tup)
				if !ok {
					continue
				}
				ruleSeen := seen[ri]
				if ruleSeen == nil {
					ruleSeen = make(map[string]bool)
					seen[ri] = ruleSeen
				}
				eval.MatchesSeeded(rule.Body, ins, seed.Restrict(bodyVars), func(s logic.Subst) bool {
					frontier := s.Restrict(bodyVars)
					key := bindingKey(frontier, bodyVars)
					if !ruleSeen[key] {
						ruleSeen[key] = true
						out = append(out, trigger{rule: int32(ri), frontier: frontier})
					}
					return true
				})
			}
		}
	}
	return out
}

// DRed-style incremental deletion for a maintained chase (Gupta, Mumick &
// Subrahmanian's delete-and-rederive, adapted to TGDs with labelled nulls).
//
// As DRed does for Datalog, a repair re-evaluates rule bodies instead of
// walking a recorded graph of firings. The one thing a re-evaluated trigger
// cannot reproduce is the nulls it invented, so the State keeps those per
// fired existential trigger — its null table, keyed by the rule and the
// trigger's full body row, a Skolem-style naming — and nothing else.
// Deleting base facts from a chased instance proceeds in two sweeps:
//
//  1. over-deletion — a semi-naive pass of the chase's own trigger
//     collection with each round's doomed facts as the delta: every trigger
//     that joins a doomed fact rebuilds its head facts from its row (and,
//     for an existential rule, from its table entry; a trigger without one
//     never fired, so it made nothing), and those still present that are
//     not base facts are doomed in the next round. This over-approximates:
//     a removed fact may have another support that survives;
//  2. rederiving — triggers that can restore removed facts are found
//     semi-naively from the removed facts themselves: each removed fact is
//     unified with rule heads and the rule bodies are joined against the
//     surviving instance from that seed, so the work is proportional to the
//     deleted closure, not to the instance. A candidate whose head no longer
//     holds re-fires, and the consequences propagate through an ordinary
//     semi-naive Resume. A killed trigger that fires again reuses the nulls
//     it invented before, so a repair restores exactly what it removed.
//
// The result is a valid chase of the remaining base data: certain answers
// equal a from-scratch chase (property-tested). Only labelled-null names and
// redundant-null counts may differ.
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
// (Delete) or of a whole rule's contribution (DeleteRuleCtx).
type DeleteResult struct {
	// Requested counts the facts removed directly: for Delete, the facts
	// named by the caller that were present (absent facts are no-ops); for
	// DeleteRuleCtx, the head facts of the removed rule's triggers.
	Requested int
	// OverDeleted counts the additional facts removed by the closure sweep.
	OverDeleted int
	// Rederived counts removed facts restored directly by a surviving
	// trigger in the rederiving sweep (facts restored deeper in the
	// propagation are not counted here).
	Rederived int
	// Result is the rederiving increment: Steps/Rounds/NullsCreated count
	// the refires (direct and propagated), and Terminated reports whether
	// the propagation reached its fixpoint within budget.
	Result *Result
}

// Delete removes the given ground base facts from ins and incrementally
// repairs the chase: the deleted closure is over-deleted by re-evaluating
// the rules with the removed facts as the delta, then survivors are
// rederived against the remaining instance. The work is proportional to the
// consequences of the deletion (see DeleteResult's counters), not to the
// instance.
//
// base is the surviving base data (with the requested facts already gone):
// the closure sweep never removes a fact still present in it, since a base
// fact needs no support — without the guard, a fact that is both base and
// derived would be over-deleted and lost (rules cannot rederive it). nil
// disables the guard, for callers whose base facts are never also rule
// heads.
//
// The state must not be truncated (a truncated chase dropped triggers that
// deletion cannot reconsider): that is an error telling the caller to
// rebuild from scratch instead. ins must be the instance this state
// materialized, possibly behind its ExtendClone.
func (st *State) Delete(rules *dependency.Set, ins *storage.Instance, facts []logic.Atom, base *storage.Instance) (*DeleteResult, error) {
	return st.DeleteCtx(context.Background(), rules, ins, facts, base)
}

// DeleteCtx is Delete under a cancellation context: the over-deletion sweep
// polls ctx in its trigger collection and the rederiving propagation
// inherits it (see ResumeCtx). On abort the repair is half-applied — facts
// removed but survivors not yet rederived — so Result.Err is set and the
// caller must discard both the instance and the state and rebuild from the
// base data (Ontology.mutate drops its forks and the materialization).
func (st *State) DeleteCtx(ctx context.Context, rules *dependency.Set, ins *storage.Instance, facts []logic.Atom, base *storage.Instance) (*DeleteResult, error) {
	if err := st.repairable(); err != nil {
		return nil, err
	}
	res := &DeleteResult{Result: &Result{Terminated: true}}
	seed := storage.NewInstance()
	for _, f := range facts {
		if !f.IsGround() {
			return nil, fmt.Errorf("chase: cannot delete non-ground atom %v", f)
		}
		if ins.ContainsAtom(f) {
			if _, err := seed.Insert(f); err != nil {
				panic(err) // f is in ins, so its arity is the relation's
			}
		}
	}
	if res.Requested = seed.Size(); res.Requested == 0 {
		return res, nil
	}
	st.repair(ctx, rules, ins, base, seed, res)
	return res, nil
}

// DeleteRuleCtx removes one rule's contribution from a maintained chase — the
// maintenance step behind Ontology.RemoveRuleCtx. rules is the SURVIVING set
// and ri the removed rule's index in the set the state last chased
// (surviving rules keep their order; indices beyond ri shift down by one).
// Any other rules is an error.
//
// The removed rule's body is evaluated once: every match is a trigger of
// the rule, and its head facts (base facts guarded exactly as in Delete)
// seed the same over-deletion sweep Delete runs, after which survivors are
// rederived against the surviving rules. DeleteResult.Requested counts the
// facts removed directly from the rule's triggers, OverDeleted the closure
// beyond them; the work is proportional to the removed rule's contribution,
// not to the instance. The null table is keyed by rule identity, so the
// surviving rules' entries stand as they are.
//
// Aborts as DeleteCtx does: on cancellation the repair is half-applied,
// Result.Err is set, the state is marked truncated, and the caller must
// discard instance and state.
func (st *State) DeleteRuleCtx(ctx context.Context, rules *dependency.Set, ins *storage.Instance, ri int, base *storage.Instance) (*DeleteResult, error) {
	if err := st.repairable(); err != nil {
		return nil, err
	}
	if !isWithout(rules, st.rules, ri) {
		return nil, fmt.Errorf("chase: rules is not the set last chased without its rule %d", ri)
	}
	dropped := st.rules.Rules[ri]
	res := &DeleteResult{Result: &Result{Terminated: true}}

	// kill only reads ins, so it runs inside the evaluation; it copies
	// what it keeps of the row.
	tp := compileTemplate(dropped)
	row := make([]logic.Term, len(tp.vars))
	seed := storage.NewInstance()
	var heads []logic.Atom
	eval.Matches(dropped.Body, ins, func(s logic.Subst) bool {
		for i, v := range tp.vars {
			row[i] = s.Walk(v)
		}
		heads = st.kill(dropped, tp, row, ins, base, seed, heads)
		return true
	})
	st.rules = rules
	res.Requested = seed.Size()
	st.repair(ctx, rules, ins, base, seed, res)
	return res, nil
}

// isWithout reports whether rules is prev with its rule at ri left out.
func isWithout(rules, prev *dependency.Set, ri int) bool {
	if prev == nil || ri < 0 || ri >= prev.Len() || rules.Len() != prev.Len()-1 {
		return false
	}
	for i, r := range rules.Rules {
		j := i
		if i >= ri {
			j++
		}
		if prev.Rules[j] != r {
			return false
		}
	}
	return true
}

// repairable reports whether the state can run an incremental DRed repair:
// it must not have truncated (a truncated chase dropped triggers that
// deletion cannot reconsider).
func (st *State) repairable() error {
	if st.truncated {
		return fmt.Errorf("chase: cannot repair a truncated chase; rebuild from scratch")
	}
	return nil
}

// repair finishes a deletion from seed, the facts chosen for removal and
// still in ins: over-delete their closure, then rederive survivors, both
// sweeps on the plans of rules (State.plansFor). Null-table entries still
// aside at the end belong to triggers that did not fire again; they are
// dropped. A ctx abort between the sweeps leaves the repair half-applied
// and says so in res.Result.
func (st *State) repair(ctx context.Context, rules *dependency.Set, ins, base, seed *storage.Instance, res *DeleteResult) {
	defer clear(st.aside)
	if seed.Size() == 0 {
		return
	}
	plans := st.plansFor(rules)
	gone := st.overDelete(ctx, rules, ins, base, plans, seed)
	res.OverDeleted = gone.Size() - res.Requested
	if err := ctx.Err(); err != nil {
		st.truncated = true // half-repaired: refuse future incremental work
		res.Result.Err = err
		res.Result.Terminated = false
		return
	}
	st.rederive(ctx, rules, ins, plans, gone, res)
}

// overDelete is the closure sweep shared by Delete and DeleteRuleCtx: a
// semi-naive pass of collectTriggers with each round's doomed facts as the
// delta. A round collects its triggers while the delta is still in ins — so
// a trigger that joined doomed facts is found in the round of the first of
// them — then takes the delta out of ins and kills the triggers, whose
// surviving non-base head facts are the next round's delta. Returns every
// removed fact.
func (st *State) overDelete(ctx context.Context, rules *dependency.Set, ins, base *storage.Instance, plans *planSet, delta *storage.Instance) *storage.Instance {
	gone := storage.NewInstance()
	var heads []logic.Atom
	for delta.Size() > 0 {
		triggers := collectTriggers(ctx, rules, ins, delta, plans, 0)
		if ctx.Err() != nil {
			return gone // canceled: half-swept, caller surfaces the abort
		}
		for _, f := range delta.Atoms() {
			ins.Remove(f)
			if _, err := gone.Insert(f); err != nil {
				panic(err)
			}
		}
		next := storage.NewInstance()
		for _, tr := range triggers {
			heads = st.kill(rules.Rules[tr.rule], plans.tmpl[tr.rule], tr.row, ins, base, next, heads)
		}
		delta = next
	}
	return gone
}

// kill takes a trigger's head facts out of the maintained chase. It rebuilds
// them from the row and, for an existential rule, from the trigger's
// null-table entry, which moves aside; a trigger without an entry never
// fired and made nothing. The head facts still in ins and not in base join
// doomed. heads is a scratch buffer, returned for reuse.
func (st *State) kill(rule *dependency.TGD, tp *template, row []logic.Term, ins, base, doomed *storage.Instance, heads []logic.Atom) []logic.Atom {
	var nulls []logic.Term
	if tp.nexist > 0 {
		key := nullKey{rule: rule, row: storage.Tuple(row).Key()}
		ns, ok := st.invented[key]
		if !ok {
			return heads
		}
		delete(st.invented, key)
		st.aside[key] = ns
		nulls = ns
	}
	heads = instantiateHead(tp, row, nulls, heads)
	for _, h := range heads {
		if ins.ContainsAtom(h) && (base == nil || !base.ContainsAtom(h)) {
			if _, err := doomed.Insert(h); err != nil {
				panic(err) // h is in ins, so its arity is the relation's
			}
		}
	}
	return heads
}

// rederive is the rederiving sweep shared by Delete and DeleteRuleCtx,
// seeded by the removed facts gone: any trigger the deletion could have
// unsuppressed must produce (or have had its head satisfied by) a removed
// fact, so unifying rule heads with removed facts and joining the body from
// that seed enumerates every candidate without touching the unaffected part
// of the instance. A candidate whose head no longer holds re-fires, and the
// consequences of the restored facts propagate through an ordinary
// semi-naive resume; res.Result describes the whole increment.
func (st *State) rederive(ctx context.Context, rules *dependency.Set, ins *storage.Instance, plans *planSet, gone *storage.Instance, res *DeleteResult) {
	cands := collectRederiveTriggers(rules, plans.tmpl, ins, gone.Atoms())
	delta := storage.NewInstance()
	runners := make([]*eval.Runner, len(rules.Rules))
	var heads []logic.Atom
	steps, nulls, restored := 0, 0, 0
	exhausted := false
	for ci, tr := range cands {
		if ci&0x1F == 0 && ctx.Err() != nil {
			break // canceled: the propagation below reports the abort
		}
		if plans.headSatisfied(int(tr.rule), tr.row, ins, runners) {
			continue
		}
		if steps == st.opts.MaxSteps {
			exhausted = true // the firing budget ends the sweep, as in resume
			break
		}
		steps++
		tp := plans.tmpl[tr.rule]
		ns, n := st.nullsFor(rules.Rules[tr.rule], tp, tr.row)
		nulls += n
		heads = instantiateHead(tp, tr.row, ns, heads)
		for _, ha := range heads {
			added, err := ins.Insert(ha)
			if err != nil {
				panic(err) // the Ontology keeps rules and data on one signature
			}
			if added {
				if gone.ContainsAtom(ha) {
					res.Rederived++
				}
				if _, err := delta.Insert(ha); err != nil {
					panic(err)
				}
				restored++
			}
		}
	}
	st.steps += steps
	st.nulls += nulls

	// Propagate the restored facts semi-naively; an empty delta means the
	// deletion reached its fixpoint in the direct sweep. A ctx abort — in
	// the direct sweep above or inside the propagation — surfaces as
	// Result.Err with Terminated false, and marks the state truncated so
	// future incremental repairs refuse to build on the half-applied sweep.
	// A direct sweep that ran out of firing budget skips the propagation and
	// leaves the state truncated, as resume's own budget exhaustion does;
	// otherwise the propagation gets what the sweep left of the budget.
	rres := &Result{Terminated: true}
	if err := ctx.Err(); err != nil {
		rres = &Result{Err: err}
		st.truncated = true
	} else if exhausted {
		rres = &Result{}
		st.truncated = true
	} else if restored > 0 {
		rres = st.resume(ctx, rules, ins, delta, 0, steps)
	}
	rres.Steps += steps
	rres.NullsCreated += nulls
	res.Result = rres
}

// collectRederiveTriggers enumerates, deduplicated, every trigger whose
// firing could restore one of the removed facts: for each removed fact and
// each rule head atom it unifies with, the rule body is joined against the
// surviving instance starting from the unification seed. Existential head
// positions bind freely during unification but are dropped from the seed
// (they are not body variables); the full head-satisfaction check happens at
// fire time.
func collectRederiveTriggers(rules *dependency.Set, tmpls []*template, ins *storage.Instance, removed []logic.Atom) []trigger {
	var out []trigger
	seen := make(map[int]*storage.TupleSet)
	for _, f := range removed {
		tup := storage.Tuple(f.Args)
		for ri, rule := range rules.Rules {
			vars := tmpls[ri].vars
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
					ruleSeen = new(storage.TupleSet)
					seen[ri] = ruleSeen
				}
				eval.MatchesSeeded(rule.Body, ins, seed.Restrict(vars), func(s logic.Subst) bool {
					row := make([]logic.Term, len(vars))
					for i, v := range vars {
						row[i] = s.Walk(v)
					}
					if ruleSeen.Add(row) {
						out = append(out, trigger{rule: int32(ri), row: row})
					}
					return true
				})
			}
		}
	}
	return out
}

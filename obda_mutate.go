package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/chase"
	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/storage"
)

// change is one staged mutation: the next rule set, the next base (a fork,
// or nil when only the rules change) and the one engine call that repairs a
// fork of the published materialization to match them.
type change struct {
	rules *dependency.Set
	base  *storage.Instance
	// n is the mutator's report: the base facts added or removed.
	n int
	// repair brings store, a fork of the published materialization, in line
	// with rules and base through st, the engine state behind it.
	repair func(st *chase.State, store *storage.Instance) (*chase.Result, error)
}

// mutate is the one write path. Under the writer lock it
//
//  1. stages the change over the published snapshot: stage validates it —
//     rule arities against the set's signature and the stored relations,
//     fact arities against the published expansion — and forks only what
//     it writes, so a rejected mutation is a strict no-op. A nil change
//     changes nothing (every inserted fact already present, every deleted
//     fact absent), so nothing is published and the snapshot keeps its
//     answer views;
//  2. repairs a copy-on-write fork of the published materialization with
//     the change's one engine call, or drops a truncated materialization,
//     which no repair can maintain soundly (counted in FullRebuilds);
//  3. publishes the next snapshot — rule set, base, repaired
//     materialization, empty answer views — with one pointer store;
//     concurrent readers keep the previous snapshot throughout.
//
// Cancellation is honored before the repair and inside it (the engines poll
// ctx at amortized intervals). A ctx error before the repair starts returns
// with nothing published; one inside the repair ends in abort. Once the repair has completed, the
// mutation commits even if ctx expires during publication — like a database
// commit, the point of no return is the start of the publish phase.
func (o *Ontology) mutate(ctx context.Context, stage func(prev *snapshot) (*change, error)) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err // strict no-op: nothing staged, nothing touched
	}
	o.wmu.Lock()
	defer o.wmu.Unlock()
	prev := o.snap.Load()
	c, err := stage(prev)
	if err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		// No engine step ran: the published materialization is intact.
		return 0, err
	}
	if c == nil {
		return 0, nil // nothing changed: keep the published snapshot
	}
	next := prev.next()
	next.rules = c.rules
	if c.base != nil {
		next.base = c.base
	}
	switch m := prev.mat; {
	case m == nil:
		// Nothing to repair: the next chase-mode answer builds.
	case !m.terminated:
		o.dropMat(next)
	default:
		store := m.store.ExtendClone()
		res, err := c.repair(m.state, store)
		switch {
		case err != nil:
			o.dropMat(next) // the engine refused the repair: rebuild lazily
		case res.Err != nil:
			return 0, o.abort(prev, res.Err)
		default:
			next.setMat(store, m.state, res.Terminated, res.Steps, res.Rounds)
		}
	}
	o.publish(next)
	return c.n, nil
}

// abort ends a canceled mutation. Its forks are thrown away: nothing it did
// was ever visible, so subsequent answers are identical to ones computed
// before it started. The one thing a canceled repair may have half-done is
// the chase engine state the published materialization shares with its
// fork, so abort publishes the loss of that materialization (rebuilt lazily
// from the untouched base, counted in FullRebuilds) and nothing else.
func (o *Ontology) abort(prev *snapshot, err error) error {
	if prev.mat != nil {
		next := prev.next()
		o.dropMat(next)
		o.publish(next)
	}
	return err
}

// repaired unwraps a DRed repair's increment.
func repaired(d *chase.DeleteResult, err error) (*chase.Result, error) {
	if err != nil {
		return nil, err
	}
	return d.Result, nil
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
	_, err = o.AddFactAtoms(ctx, facts)
	return err
}

// AddFactAtoms inserts already-parsed ground atoms under a cancellation
// context, reporting how many were genuinely new; semantics are exactly
// AddFactCtx's (all-or-nothing staging, incremental delta chase, nothing
// published on cancellation).
func (o *Ontology) AddFactAtoms(ctx context.Context, facts []logic.Atom) (int, error) {
	return o.mutate(ctx, func(prev *snapshot) (*change, error) {
		staged, err := prev.stageFacts(facts)
		if err != nil {
			return nil, err
		}
		base := prev.base.ExtendClone()
		var added []logic.Atom
		for _, f := range staged {
			// Cannot fail: staging checked every arity against the stored
			// relations, a superset of the base.
			if isNew, _ := base.Insert(f); isNew {
				added = append(added, f)
			}
		}
		if len(added) == 0 {
			return nil, nil
		}
		return &change{rules: prev.rules, base: base, n: len(added),
			repair: func(st *chase.State, store *storage.Instance) (*chase.Result, error) {
				return st.ExtendCtx(ctx, prev.rules, store, added)
			}}, nil
	})
}

// DeleteFact removes ground base facts, parsed like AddFact's input, and
// reports how many were actually present (absent facts are no-ops). The
// published materialization is repaired DRed-style instead of discarded:
// the derived closure of the removed facts is over-deleted by re-evaluating
// the rules with the removed facts as the delta, then survivors are
// rederived against the remaining instance — work proportional to the consequences of the deletion, not to
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
	return o.mutate(ctx, func(prev *snapshot) (*change, error) {
		base := prev.base.ExtendClone()
		var removed []logic.Atom
		for _, f := range facts {
			// Remove is idempotent: a fact named twice is removed once.
			if base.Remove(f) {
				removed = append(removed, f)
			}
		}
		if len(removed) == 0 {
			return nil, nil
		}
		return &change{rules: prev.rules, base: base, n: len(removed),
			repair: func(st *chase.State, store *storage.Instance) (*chase.Result, error) {
				return repaired(st.DeleteCtx(ctx, prev.rules, store, removed, base))
			}}, nil
	})
}

// AddRuleCtx adds a single TGD, parsed from text like
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
// throughout. A canceled extension publishes neither the rule nor any
// half-derived consequences — the rule set, snapshots and answers stay
// exactly pre-mutation.
func (o *Ontology) AddRuleCtx(ctx context.Context, src string) error {
	rule, err := parser.ParseRule(src)
	if err != nil {
		return err
	}
	_, err = o.mutate(ctx, func(prev *snapshot) (*change, error) {
		rules, err := prev.rules.WithRule(rule)
		if err != nil {
			return nil, err
		}
		if err := checkRuleArities(rules, prev.storedRelations()); err != nil {
			return nil, err
		}
		firstNew := prev.rules.Len()
		return &change{rules: rules,
			repair: func(st *chase.State, store *storage.Instance) (*chase.Result, error) {
				return st.ExtendRulesCtx(ctx, rules, store, firstNew), nil
			}}, nil
	})
	return err
}

// RemoveRuleCtx removes the rule with the given label (see Rules for the
// current labels) from the live ontology. A published materialization is
// repaired DRed-style, in place: the removed rule's body is evaluated once,
// the head facts of its triggers are over-deleted together with their
// derived closure, then survivors are rederived through the surviving rules
// — facts also derivable another way (or present in the base data) stay,
// exactly as a from-scratch chase of the shrunk set would have them.
// Concurrent readers never block and keep the previous snapshot until the
// repair publishes. A canceled repair keeps the rule — the set is only swapped at publish time,
// which an aborted mutation never reaches.
func (o *Ontology) RemoveRuleCtx(ctx context.Context, label string) error {
	_, err := o.mutate(ctx, func(prev *snapshot) (*change, error) {
		ri := prev.rules.IndexOfLabel(label)
		if ri < 0 {
			return nil, fmt.Errorf("repro: no rule labeled %q", label)
		}
		rules, err := prev.rules.WithoutRule(ri)
		if err != nil {
			return nil, err
		}
		return &change{rules: rules,
			repair: func(st *chase.State, store *storage.Instance) (*chase.Result, error) {
				return repaired(st.DeleteRuleCtx(ctx, rules, store, ri, prev.base))
			}}, nil
	})
	return err
}

// LoadCSVCtx bulk-loads tuples for one predicate from CSV data into the
// ontology's database (every record one tuple of constants). The load is
// atomic: on a malformed CSV or an arity conflict nothing is inserted. Like
// AddFactCtx, the published snapshots are maintained incrementally and
// copy-on-write — the genuinely new tuples become the delta of a resumed
// chase, and concurrent readers keep the previous snapshot meanwhile. A load
// canceled mid-chase publishes nothing, so the bulk load either lands in
// full or observably never happened.
func (o *Ontology) LoadCSVCtx(ctx context.Context, pred string, r io.Reader) (added int, err error) {
	// Stage into a private instance first so parse errors leave the
	// ontology untouched; the tuples then go through AddFactAtoms, whose
	// staging re-validates arities against the published expansion so a
	// conflict leaves data and snapshots untouched.
	staged := storage.NewInstance()
	if _, err := staged.LoadCSV(pred, r); err != nil {
		return 0, err
	}
	rel := staged.Relation(pred)
	if rel == nil {
		return 0, nil // empty CSV
	}
	atoms := make([]logic.Atom, 0, rel.Len())
	for _, t := range rel.Tuples() {
		atoms = append(atoms, logic.Atom{Pred: pred, Args: t})
	}
	return o.AddFactAtoms(ctx, atoms)
}

// stageFacts validates an AddFact batch against the published expansion (a
// superset of the base data) when one exists, and against the signature of
// the rules for predicates nothing stores yet, staging it into a private
// instance so intra-batch arity conflicts also surface — all before the
// ontology is touched. A stored relation already agrees with the rules
// (construction and AddRuleCtx check it), so the signature is only derived
// when a fact needs it. Returns the staged batch deduplicated.
func (s *snapshot) stageFacts(facts []logic.Atom) ([]logic.Atom, error) {
	staged := storage.NewInstance()
	stored := s.storedRelations()
	var sig map[string]int
	for _, f := range facts {
		arity, ok := 0, false
		if rel := stored.Relation(f.Pred); rel != nil {
			arity, ok = rel.Arity(), true
		} else {
			if sig == nil {
				sig, _ = s.rules.Predicates() // consistent: checked before publication
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

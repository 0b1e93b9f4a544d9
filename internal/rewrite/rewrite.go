// Package rewrite implements UCQ rewriting over TGDs: the query-expansion
// technique whose termination behaviour the paper's SWR/WR classes
// characterize. Given a (U)CQ q and a set P of TGDs, it computes a union of
// conjunctive queries q' such that evaluating q' directly over any database
// D yields exactly cert(q, P, D) — the first-order rewriting promised by
// FO-rewritability (paper Definition 1).
//
// The rewriting step is piece unification (König/Mugnier style), complete
// for arbitrary TGDs including multi-atom heads: a step selects a non-empty
// "piece" of query atoms, maps each to a head atom of a rule, computes the
// joint most-general unifier, verifies the applicability conditions on
// existential head variables, and replaces the piece with the instantiated
// rule body. Unifying several query atoms in one step subsumes the classical
// factorization rule. Generated CQs are pruned by homomorphic subsumption.
//
// On FO-rewritable inputs (e.g. any SWR set, Theorem 1) the loop reaches a
// fixpoint; otherwise it stops at the configured budgets and reports the
// rewriting as incomplete (still sound: every disjunct only returns certain
// answers).
package rewrite

import (
	"context"
	"sort"

	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/query"
)

// Options configures the rewriting engine.
type Options struct {
	// MaxCQs bounds the number of distinct CQs kept in the rewriting
	// (0 = default 5000). Exceeding it stops the loop with Complete=false.
	MaxCQs int
}

// maxPieceSize bounds how many query atoms one step may unify. Pieces larger
// than the largest rule head only matter for factorization, so this loses no
// completeness in practice for the classes studied here.
const maxPieceSize = 3

// DefaultOptions returns the recommended configuration: the default budget.
// Every generated CQ is core-minimized.
func DefaultOptions() Options { return Options{} }

// Result is the outcome of a rewriting run.
type Result struct {
	// UCQ is the computed rewriting (pruned of subsumed disjuncts).
	UCQ *query.UCQ
	// Complete reports whether the rewriting reached a fixpoint. When
	// false, budgets were hit (or the run was canceled): the UCQ is sound
	// but may miss answers.
	Complete bool
	// Err is the context error when the run was aborted by cancellation or
	// deadline (RewriteCtx / RewriteUCQCtx); Complete is then false.
	Err error
	// Generated counts every CQ produced, including pruned duplicates.
	Generated int
	// Kept is the number of disjuncts in the final UCQ.
	Kept int
	// MaxDepthSeen is the deepest rewriting step applied.
	MaxDepthSeen int
	// LargestCQ is the atom count of the largest CQ ever generated —
	// strictly growing values are the signature of the paper's "unbounded
	// chain" divergence (Example 2).
	LargestCQ int
	// Paths holds, aligned with UCQ.CQs, the rule labels applied to derive
	// each disjunct from the input query (empty for input disjuncts).
	Paths [][]string
}

// Rewrite computes the UCQ rewriting of a single CQ.
func Rewrite(q *query.CQ, rules *dependency.Set, opts Options) *Result {
	return RewriteUCQ(&query.UCQ{CQs: []*query.CQ{q}}, rules, opts)
}

// RewriteCtx is Rewrite under a cancellation context: the pool loop checks
// ctx between entries, so a canceled or deadline-expired run stops after the
// current entry's rule applications. The returned Result is still sound
// (every kept disjunct only returns certain answers) but Complete is false
// and Err carries the context error.
func RewriteCtx(ctx context.Context, q *query.CQ, rules *dependency.Set, opts Options) *Result {
	return RewriteUCQCtx(ctx, &query.UCQ{CQs: []*query.CQ{q}}, rules, opts)
}

// RewriteUCQ computes the UCQ rewriting of a union of CQs.
func RewriteUCQ(u *query.UCQ, rules *dependency.Set, opts Options) *Result {
	return RewriteUCQCtx(context.Background(), u, rules, opts)
}

// RewriteUCQCtx is RewriteUCQ under a cancellation context; see RewriteCtx.
//
// The work is proportional to what can match: a pool entry meets only the
// rules with a head predicate among its body predicates (in rules.Rules
// order), each rule is renamed apart once per run, on first use, and a
// subsumption test runs only between entries whose predicate sets allow a
// homomorphism.
func RewriteUCQCtx(ctx context.Context, u *query.UCQ, rules *dependency.Set, opts Options) *Result {
	maxCQs := opts.MaxCQs
	if maxCQs == 0 {
		maxCQs = 5000
	}
	st := &state{gen: logic.NewVarGen("rw"), byKey: make(map[string]int),
		renamed: make([]*dependency.TGD, len(rules.Rules))}

	for _, q := range u.CQs {
		st.offer(q, 0, nil)
	}

	res := &Result{Complete: true}
	done := ctx.Done()
	for st.cursor < len(st.pool) {
		if done != nil {
			if err := ctx.Err(); err != nil {
				res.Complete = false
				res.Err = err
				break
			}
		}
		entry := st.pool[st.cursor]
		st.cursor++
		if entry.dead {
			continue
		}
		for i, rule := range rules.Rules {
			if !meets(rule, entry.preds) {
				continue
			}
			st.applyRule(entry, st.renamedRule(i, rule))
			if st.live > maxCQs {
				break
			}
		}
		if st.live > maxCQs {
			res.Complete = false
			break
		}
	}

	var kept []*query.CQ
	var paths [][]string
	for _, e := range st.pool {
		if !e.dead {
			kept = append(kept, e.cq)
			paths = append(paths, e.path)
			if e.depth > res.MaxDepthSeen {
				res.MaxDepthSeen = e.depth
			}
		}
	}
	res.UCQ = &query.UCQ{CQs: kept}
	res.Paths = paths
	res.Generated = st.generated
	res.Kept = len(kept)
	res.LargestCQ = st.largest
	return res
}

type poolEntry struct {
	cq *query.CQ
	// preds holds the distinct predicates of cq's body, sorted.
	preds []string
	depth int
	dead  bool
	// path records the labels of the rules applied to reach this CQ.
	path []string
}

type state struct {
	gen *logic.VarGen
	// renamed[i] is rule i renamed apart, or nil until a pool entry first
	// meets it.
	renamed   []*dependency.TGD
	pool      []*poolEntry
	byKey     map[string]int
	cursor    int
	live      int // pool entries not dead
	generated int
	largest   int
}

// renamedRule returns rule (rules.Rules[i]) renamed apart, renaming it on
// first use. One copy serves the whole run: every pool entry went through
// offer's Canonical, so its variables are exactly V1…Vn, while a copy's
// variables are named rw#k, which no Canonical name equals. A copy therefore
// shares no variable with any entry it meets, and each piece unification
// starts from a fresh unifier.
func (st *state) renamedRule(i int, rule *dependency.TGD) *dependency.TGD {
	if st.renamed[i] == nil {
		st.renamed[i] = rule.Rename(st.gen)
	}
	return st.renamed[i]
}

// meets reports whether some head atom of rule has a predicate in preds
// (sorted): only then can a piece of the entry unify with the rule's head.
func meets(rule *dependency.TGD, preds []string) bool {
	for _, h := range rule.Head {
		if i := sort.SearchStrings(preds, h.Pred); i < len(preds) && preds[i] == h.Pred {
			return true
		}
	}
	return false
}

// bodyPreds returns the distinct predicates of a body sorted by atom Key,
// in order. An atom's Key starts with its predicate followed by a NUL byte,
// so sorting by Key sorts by predicate.
func bodyPreds(body []logic.Atom) []string {
	var out []string
	for _, a := range body {
		if len(out) == 0 || out[len(out)-1] != a.Pred {
			out = append(out, a.Pred)
		}
	}
	return out
}

// subset reports whether every element of the sorted, distinct slice a
// occurs in the sorted, distinct slice b. preds(p) ⊆ preds(q) is necessary for q ⊆ p: a
// homomorphism maps every body atom of p onto a body atom of q with the same
// predicate.
func subset(a, b []string) bool {
	i := 0
	for _, y := range b {
		if i < len(a) && a[i] == y {
			i++
		}
	}
	return i == len(a)
}

// offer adds a candidate CQ to the pool unless it duplicates or is subsumed
// by a live entry; live entries strictly subsumed by the candidate are
// retired.
func (st *state) offer(q *query.CQ, depth int, path []string) {
	st.generated++
	q = q.Minimize().SortBody().Canonical()
	if len(q.Body) > st.largest {
		st.largest = len(q.Body)
	}
	// q is sorted and canonical, so an exact duplicate of a live entry has
	// its Key; any other equivalent CQ fails the containment test below.
	key := q.Key()
	if idx, ok := st.byKey[key]; ok && !st.pool[idx].dead {
		return
	}
	preds := bodyPreds(q.Body)
	frozen := q.Freeze()
	for _, e := range st.pool {
		if !e.dead && subset(e.preds, preds) && frozen.ContainedIn(e.cq) {
			return
		}
	}
	for _, e := range st.pool {
		if !e.dead && subset(preds, e.preds) && e.cq.ContainedIn(q) {
			e.dead = true
			st.live--
		}
	}
	st.pool = append(st.pool, &poolEntry{cq: q, preds: preds, depth: depth, path: path})
	st.byKey[key] = len(st.pool) - 1
	st.live++
}

// cand pairs a query-atom index with the head-atom index it unifies with in
// a piece-unification step.
type cand struct{ qi, hi int }

// applyRule enumerates every piece unification of entry.cq with the
// (renamed-apart) rule and offers the resulting CQs.
func (st *state) applyRule(entry *poolEntry, rule *dependency.TGD) {
	q := entry.cq
	// Candidate query-atom indexes per head-atom index.
	var cands []cand
	for qi, qa := range q.Body {
		for hi, ha := range rule.Head {
			if qa.Pred == ha.Pred && qa.Arity() == ha.Arity() {
				cands = append(cands, cand{qi, hi})
			}
		}
	}
	if len(cands) == 0 {
		return
	}
	maxPiece := maxPieceSize
	if maxPiece > len(q.Body) {
		maxPiece = len(q.Body)
	}

	// Enumerate assignments: pick a non-empty subset of candidate pairs
	// with distinct query atoms (a query atom unifies with exactly one head
	// atom per step; head atoms may absorb several query atoms).
	var chosen []cand
	usedQ := make(map[int]bool)
	var rec func(start int)
	rec = func(start int) {
		if len(chosen) > 0 {
			st.tryPiece(entry, rule, chosen)
		}
		if len(chosen) == maxPiece {
			return
		}
		for i := start; i < len(cands); i++ {
			c := cands[i]
			if usedQ[c.qi] {
				continue
			}
			usedQ[c.qi] = true
			chosen = append(chosen, c)
			rec(i + 1)
			chosen = chosen[:len(chosen)-1]
			delete(usedQ, c.qi)
		}
	}
	rec(0)
}

// tryPiece attempts a single piece unification: the query atoms named in
// piece are unified with their assigned head atoms; on success the rewritten
// CQ is offered to the pool.
func (st *state) tryPiece(entry *poolEntry, rule *dependency.TGD, piece []cand) {
	q := entry.cq
	u := logic.NewUnifier()
	for _, p := range piece {
		if !u.UnifyAtoms(q.Body[p.qi], rule.Head[p.hi]) {
			return
		}
	}
	if !st.applicable(q, rule, piece, u) {
		return
	}
	subst := u.Subst()

	inPiece := make(map[int]bool, len(piece))
	for _, p := range piece {
		inPiece[p.qi] = true
	}
	var body []logic.Atom
	for qi, qa := range q.Body {
		if !inPiece[qi] {
			body = append(body, subst.ApplyAtom(qa))
		}
	}
	body = append(body, subst.ApplyAtoms(rule.Body)...)
	head := subst.ApplyAtom(q.Head)
	newCQ := &query.CQ{Head: head, Body: body}
	if newCQ.Validate() != nil {
		return
	}
	path := append(append([]string{}, entry.path...), rule.Label)
	st.offer(newCQ, entry.depth+1, path)
}

// applicable verifies the piece-unifier conditions on every existential head
// variable e of the rule: the unifier class of e must contain no constant,
// no other variable of the rule, no answer variable of the query, and no
// query variable that occurs in a body atom outside the piece. These are
// exactly the conditions under which dropping the piece is sound — the
// erased variables denote unknown values the rule's head invents.
func (st *state) applicable(q *query.CQ, rule *dependency.TGD, piece []cand, u *logic.Unifier) bool {
	ruleVars := make(map[logic.Term]bool)
	for _, v := range rule.HeadVars() {
		ruleVars[v] = true
	}
	answer := make(map[logic.Term]bool)
	for _, t := range q.Head.Args {
		if t.IsVar() {
			answer[t] = true
		}
	}
	inPiece := make(map[int]bool, len(piece))
	for _, p := range piece {
		inPiece[p.qi] = true
	}
	outsideVars := make(map[logic.Term]bool)
	for qi, qa := range q.Body {
		if !inPiece[qi] {
			for _, v := range qa.Vars() {
				outsideVars[v] = true
			}
		}
	}
	for _, e := range rule.ExistentialHead() {
		for _, member := range u.ClassOf(e) {
			if member == e {
				continue
			}
			if member.IsRigid() {
				return false // constant (or null) forced into an invented value
			}
			if ruleVars[member] {
				return false // merged with a frontier or another existential
			}
			// member is a query variable: it is erased by this step, so it
			// must not be needed elsewhere.
			if answer[member] || outsideVars[member] {
				return false
			}
		}
	}
	return true
}

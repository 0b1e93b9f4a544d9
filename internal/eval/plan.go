// The planner half of the evaluation engine: a conjunctive query (or rule
// body) is compiled once per (query, instance) into a Plan — variables
// numbered into integer register slots, atoms ordered by the cost model
// (orderCost), and for every atom its one access path — a probe of the
// per-column index of the known column with the most distinct values, or a
// scan when no column is known — plus a check/bind micro-program resolved
// entirely at plan time. The executor (exec.go) then runs the plan over a
// flat register array with no substitution maps, no term walking and no
// per-binding allocation.
package eval

import (
	"math"

	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/storage"
)

// Planner is the atom-ordering parameter of the Compile* functions. One
// order exists — orderCost, the statistics-driven cost order — so the type
// has one value. It survives only because benchmark/ calls
// CompileUCQ(u, ins, PlannerDefault, JoinDefault); the type and the
// parameter can go once that call does.
type Planner int

// PlannerDefault is the cost order.
const PlannerDefault Planner = 0

// JoinStrategy is the join parameter of the Compile* functions. Every atom
// has one access path (see the package comment), so the type has one value.
// Like Planner it survives only because benchmark/ calls
// CompileUCQ(u, ins, PlannerDefault, JoinDefault).
type JoinStrategy int

// JoinDefault is the single-column index probe.
const JoinDefault JoinStrategy = 0

// opKind discriminates the executor's per-argument micro-operations.
type opKind uint8

const (
	// opBind writes the tuple value into a register: regs[slot] = tuple[col].
	opBind opKind = iota
	// opEq requires the tuple value to equal a register: tuple[col] == regs[slot].
	opEq
	// opConst requires the tuple value to equal a fixed term: tuple[col] == term.
	opConst
)

// op is one micro-operation of an atom's check/bind program.
type op struct {
	kind opKind
	col  int
	slot int
	term logic.Term
}

// atomStep is one compiled body atom: its relation name, the access path
// fixed at plan time, and the micro-program run against every candidate
// tuple. Relations are resolved by name at execution time (Runner.Bind), so
// a plan stays valid across copy-on-write relation swaps and relations that
// appear after compilation.
type atomStep struct {
	pred  string
	arity int
	// idxCol is the column probed through the per-column index; -1 scans.
	idxCol int
	// keySlot is the register holding the probe key (-1 when keyTerm is the
	// compile-time constant key).
	keySlot int
	keyTerm logic.Term
	ops     []op
}

// headOut is one projected head position: a register slot, or a constant.
type headOut struct {
	slot int // -1 means term
	term logic.Term
}

// Plan is a compiled conjunctive query or rule body. Plans are immutable
// after compilation and safe to share across goroutines; per-execution state
// lives in a Runner.
type Plan struct {
	nslots int
	// seedOps is the micro-program run against the seed tuple of a delta
	// plan (CompileDelta); nil for ordinary plans.
	seedOps []op
	// seedVars are the pre-bound variables of a Subst-seeded plan, occupying
	// slots 0..len(seedVars)-1 in order (Runner.SeedSubst fills them).
	seedVars []logic.Term
	atoms    []atomStep
	head     []headOut // nil for body-only plans
	slotVar  []logic.Term
	varSlot  map[logic.Term]int
}

// AtomAccess describes one planned atom for introspection and tests.
type AtomAccess struct {
	// Pred is the atom's predicate.
	Pred string
	// Index is the probed index column, or -1 for a full scan.
	Index int
}

// Access returns the planned atom order with each atom's access path, in
// execution order (delta plans omit the pinned seed atom).
func (p *Plan) Access() []AtomAccess {
	out := make([]AtomAccess, len(p.atoms))
	for i, a := range p.atoms {
		out[i] = AtomAccess{Pred: a.pred, Index: a.idxCol}
	}
	return out
}

// Slots maps variables to their register slots, -1 for variables the plan
// never binds. The chase uses it to read trigger frontiers straight out of
// the register file.
func (p *Plan) Slots(vars []logic.Term) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		if s, ok := p.varSlot[v]; ok {
			out[i] = s
		} else {
			out[i] = -1
		}
	}
	return out
}

// CompileCQ compiles a conjunctive query into a plan with head projection.
func CompileCQ(q *query.CQ, ins *storage.Instance, _ Planner, _ JoinStrategy) *Plan {
	return compile(&q.Head, q.Body, -1, nil, ins)
}

// CompileUCQ compiles every member CQ of a union.
func CompileUCQ(u *query.UCQ, ins *storage.Instance, _ Planner, _ JoinStrategy) []*Plan {
	plans := make([]*Plan, len(u.CQs))
	for i, q := range u.CQs {
		plans[i] = CompileCQ(q, ins, PlannerDefault, JoinDefault)
	}
	return plans
}

// CompileBody compiles a rule body (no head projection) with seedVars
// pre-bound: they occupy the first registers, filled by Runner.SeedSubst
// before enumeration, and steer the atom order toward atoms they make
// selective. Every seed variable must be mapped to a rigid term at run time.
func CompileBody(body []logic.Atom, ins *storage.Instance, seedVars []logic.Term, _ Planner, _ JoinStrategy) *Plan {
	return compile(nil, body, -1, seedVars, ins)
}

// CompileDelta compiles a rule body with atom di pinned to a seed tuple: the
// executor first runs the seed micro-program against the tuple
// (Runner.RunTuple) — reproducing unification including repeated variables
// and constants — then joins the remaining atoms. The semi-naive chase
// compiles one delta plan per (rule, body atom) and reuses it for every
// delta fact of every round.
func CompileDelta(body []logic.Atom, di int, ins *storage.Instance, _ Planner, _ JoinStrategy) *Plan {
	return compile(nil, body, di, nil, ins)
}

// compile is the shared planner: number variables into slots, order the
// atoms, fix each atom's access path, and emit the micro-programs. The
// instance supplies the statistics; Runner.Bind resolves the relations.
func compile(head *logic.Atom, body []logic.Atom, seedAtom int, seedVars []logic.Term, ins *storage.Instance) *Plan {
	p := &Plan{varSlot: make(map[logic.Term]int)}
	slotOf := func(v logic.Term) int {
		if s, ok := p.varSlot[v]; ok {
			return s
		}
		s := p.nslots
		p.nslots++
		p.varSlot[v] = s
		p.slotVar = append(p.slotVar, v)
		return s
	}
	bound := make(map[logic.Term]bool)

	// Seed variables first: slots 0..k-1 in caller order, pre-bound.
	for _, v := range seedVars {
		slotOf(v)
		bound[v] = true
	}
	p.seedVars = append([]logic.Term(nil), seedVars...)

	// Seed atom of a delta plan: its micro-program runs against the seed
	// tuple, so columns are tuple positions and every variable it mentions is
	// bound before the join starts.
	rest := body
	if seedAtom >= 0 {
		for j, t := range body[seedAtom].Args {
			if !t.IsVar() {
				p.seedOps = append(p.seedOps, op{kind: opConst, col: j, term: t})
				continue
			}
			s := slotOf(t)
			if bound[t] {
				p.seedOps = append(p.seedOps, op{kind: opEq, col: j, slot: s})
			} else {
				p.seedOps = append(p.seedOps, op{kind: opBind, col: j, slot: s})
				bound[t] = true
			}
		}
		rest = make([]logic.Atom, 0, len(body)-1)
		rest = append(rest, body[:seedAtom]...)
		rest = append(rest, body[seedAtom+1:]...)
	}

	// Fix access paths and emit micro-programs, threading the bound set.
	for _, a := range orderCost(rest, ins, bound) {
		step := atomStep{pred: a.Pred, arity: a.Arity(), idxCol: -1, keySlot: -1}
		rel := ins.Relation(a.Pred)
		statsOK := rel != nil && rel.Arity() == a.Arity()

		// Access path: among columns whose value is known before this atom
		// runs (a constant/null argument, or a variable bound earlier), probe
		// the one with the most distinct values — the shortest expected
		// posting list. Unknown stats fall back to the first such column.
		bestDistinct := -1
		for j, t := range a.Args {
			if t.IsVar() && !bound[t] {
				continue
			}
			d := 0
			if statsOK {
				d = rel.Distinct(j)
			}
			if d > bestDistinct {
				step.idxCol, bestDistinct = j, d
			}
		}
		if step.idxCol >= 0 {
			if t := a.Args[step.idxCol]; t.IsVar() {
				step.keySlot = p.varSlot[t]
			} else {
				step.keyTerm = t
			}
		}

		// Micro-program: one op per column, except the probed index column,
		// which the access path already guarantees (a probe on slot s implies
		// tuple[col] == regs[s]; further occurrences of the same variable
		// still emit opEq).
		for j, t := range a.Args {
			if !t.IsVar() {
				if j == step.idxCol {
					continue // probe guarantees the constant
				}
				step.ops = append(step.ops, op{kind: opConst, col: j, term: t})
				continue
			}
			s := slotOf(t)
			if bound[t] {
				if j == step.idxCol && step.keySlot == s {
					continue // probe guarantees the equality
				}
				step.ops = append(step.ops, op{kind: opEq, col: j, slot: s})
			} else {
				step.ops = append(step.ops, op{kind: opBind, col: j, slot: s})
				bound[t] = true
			}
		}
		p.atoms = append(p.atoms, step)
	}

	// Head projection: safety guarantees every head variable has a slot.
	if head != nil {
		p.head = make([]headOut, len(head.Args))
		for i, t := range head.Args {
			if t.IsVar() {
				p.head[i] = headOut{slot: p.varSlot[t]}
			} else {
				p.head[i] = headOut{slot: -1, term: t}
			}
		}
	}
	return p
}

// orderCost greedily picks, at each step, the atom with the smallest
// estimated candidate count given the variables bound so far: the relation
// size divided by the largest distinct count among its known columns —
// exactly the posting-list length compile's access path then expects, or
// the whole relation when no column is known. Bound variables from earlier
// picks make joins selective, so the order chains through shared variables
// whenever the statistics reward it.
func orderCost(body []logic.Atom, ins *storage.Instance, bound map[logic.Term]bool) []logic.Atom {
	nowBound := make(map[logic.Term]bool, len(bound))
	for v := range bound {
		nowBound[v] = true
	}
	remaining := append([]logic.Atom(nil), body...)
	ordered := make([]logic.Atom, 0, len(body))
	estimate := func(a logic.Atom) float64 {
		rel := ins.Relation(a.Pred)
		if rel == nil || rel.Arity() != a.Arity() {
			return 0 // empty relation: prunes everything, run it first
		}
		d := 1
		for j, t := range a.Args {
			if !t.IsVar() || nowBound[t] {
				d = max(d, rel.Distinct(j))
			}
		}
		return float64(rel.Len()) / float64(d)
	}
	//repro:allow ctxpoll planning loop, consumes one atom per iteration
	for len(remaining) > 0 {
		best, bestEst := 0, math.Inf(1)
		for i, a := range remaining {
			if est := estimate(a); est < bestEst {
				best, bestEst = i, est
			}
		}
		a := remaining[best]
		ordered = append(ordered, a)
		for _, v := range a.Vars() {
			nowBound[v] = true
		}
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return ordered
}

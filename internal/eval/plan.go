// The planner half of the evaluation engine: a conjunctive query (or rule
// body) is compiled once per pattern into a Plan — variables numbered into
// integer register slots, atoms ordered by what the pattern itself says
// (orderPattern), and for every atom its one access path — a probe of the
// per-column index of its first known column, or a scan when no column is
// known — plus a check/bind micro-program resolved entirely at plan time.
// No store is read: a plan is a pure function of the body and its seed
// variables, so one plan serves the base data and the chase alike. The
// executor (exec.go) then runs the plan over a flat register array with no
// substitution maps, no term walking and no per-binding allocation.
package eval

import (
	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/storage"
)

// Planner is a parameter kept only because benchmark/ calls
// CompileUCQ(u, ins, PlannerDefault, JoinDefault). One atom order exists,
// the pattern order, so the type has one value and no Compile* function
// reads it.
type Planner int

// PlannerDefault is the pattern order.
const PlannerDefault Planner = 0

// JoinStrategy is, like Planner, kept only for CompileUCQ's signature: every
// atom has one access path (see the package comment).
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
// never binds. The chase uses it to read trigger rows straight out of the
// register file.
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
func CompileCQ(q *query.CQ) *Plan {
	return compile(&q.Head, q.Body, -1, nil)
}

// CompileUCQ compiles every member CQ of a union. The instance and the two
// one-value parameters are ignored: a plan depends on the pattern alone.
// They stay because benchmark/ calls CompileUCQ with them.
func CompileUCQ(u *query.UCQ, _ *storage.Instance, _ Planner, _ JoinStrategy) []*Plan {
	plans := make([]*Plan, len(u.CQs))
	for i, q := range u.CQs {
		plans[i] = CompileCQ(q)
	}
	return plans
}

// CompileBody compiles a rule body (no head projection) with seedVars
// pre-bound: they occupy the first registers, filled by Runner.SeedSubst
// before enumeration, and count as known positions when the atoms are
// ordered. Every seed variable must be mapped to a rigid term at run time.
func CompileBody(body []logic.Atom, seedVars []logic.Term) *Plan {
	return compile(nil, body, -1, seedVars)
}

// CompileDelta compiles a rule body with atom di pinned to a seed tuple: the
// executor first runs the seed micro-program against the tuple
// (Runner.RunTuple) — reproducing unification including repeated variables
// and constants — then joins the remaining atoms. The semi-naive chase
// compiles one delta plan per (rule, body atom) and reuses it for every
// delta fact of every round.
func CompileDelta(body []logic.Atom, di int) *Plan {
	return compile(nil, body, di, nil)
}

// compile is the shared planner: number variables into slots, order the
// atoms, fix each atom's access path, and emit the micro-programs. It reads
// no store; Runner.Bind resolves the relations.
func compile(head *logic.Atom, body []logic.Atom, seedAtom int, seedVars []logic.Term) *Plan {
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
	for _, a := range orderPattern(rest, bound) {
		step := atomStep{pred: a.Pred, arity: a.Arity(), idxCol: -1, keySlot: -1}

		// Access path: probe the first column whose value is known before
		// this atom runs — a constant or null argument, or a variable bound
		// earlier.
		for j, t := range a.Args {
			if !t.IsVar() || bound[t] {
				step.idxCol = j
				break
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

// orderPattern greedily picks, at each step, the first remaining atom with
// the most known argument positions — constants, nulls and variables bound
// by the seed or by earlier picks — so ties go to body order. The order
// chains through shared variables and reads no statistics: an empty
// relation prunes wherever it runs, because Runner.Bind refuses it.
func orderPattern(body []logic.Atom, bound map[logic.Term]bool) []logic.Atom {
	nowBound := make(map[logic.Term]bool, len(bound))
	for v := range bound {
		nowBound[v] = true
	}
	remaining := append([]logic.Atom(nil), body...)
	ordered := make([]logic.Atom, 0, len(body))
	//repro:allow ctxpoll planning loop, consumes one atom per iteration
	for len(remaining) > 0 {
		best, bestKnown := 0, -1
		for i, a := range remaining {
			known := 0
			for _, t := range a.Args {
				if !t.IsVar() || nowBound[t] {
					known++
				}
			}
			if known > bestKnown {
				best, bestKnown = i, known
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

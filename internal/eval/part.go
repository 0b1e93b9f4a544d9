// Partition-pruned evaluation: Runner.Bind resolves each join level's
// relation per partition of the store and, whenever the plan fixes the
// partitioning column's value before the level runs — a compile-time
// constant, or a register bound by a shallower level — the level probes
// exactly one sub-instance instead of all P, so its index probe sees 1/P of
// the data; levels that leave the partitioning column free iterate the
// sub-instances in order, so the answer set is identical for every P. At
// P = 1 every level is fixed to partition 0 and nothing counts as pruned.
package eval

import "repro/internal/storage"

// partSrc is how one join level picks its partitions, derived per store
// layout: the range part..last (one precomputed partition for a constant key
// or a predicate too narrow to route, which stores wholly in partition 0;
// 0..P-1 when the partitioning column is not fixed before the level runs),
// unless slot >= 0 — then that register, bound by a shallower level, holds
// the partitioning column's value at cursor-init time and routes the level
// to one partition.
type partSrc struct {
	part, last int
	slot       int
}

// fixedPart, slotPart and allParts build the three kinds of source.
func fixedPart(p int) partSrc     { return partSrc{part: p, last: p, slot: -1} }
func slotPart(slot int) partSrc   { return partSrc{slot: slot} }
func allParts(nparts int) partSrc { return partSrc{last: nparts - 1, slot: -1} }

// partSource derives the partition source of one compiled atom from its
// access path and micro-program: the partitioning column's value comes from
// the probe key or a micro-op — a constant resolves to a
// fixed partition, an equality against a register bound by an earlier level
// routes at run time, and anything else (the column is first bound by this
// very atom) forces the all-partitions walk.
func partSource(step *atomStep, col, nparts int) partSrc {
	if nparts == 1 || step.arity <= col {
		return fixedPart(0)
	}
	if step.idxCol == col {
		if step.keySlot >= 0 {
			return slotPart(step.keySlot)
		}
		return fixedPart(storage.RoutePart(step.keyTerm, nparts))
	}
	for _, o := range step.ops {
		if o.col != col {
			// An opBind before the partitioning column's op binds its
			// register within this same atom — such a slot is not routable
			// at cursor-init time, which the opEq case below must respect.
			continue
		}
		switch o.kind {
		case opConst:
			return fixedPart(storage.RoutePart(o.term, nparts))
		case opEq:
			if slotBoundWithin(step, o.slot) {
				return allParts(nparts)
			}
			return slotPart(o.slot)
		default:
			return allParts(nparts)
		}
	}
	return allParts(nparts)
}

// slotBoundWithin reports whether the atom's own micro-program binds the
// slot (repeated variable first bound by this atom): its register holds
// nothing usable at cursor-init time.
func slotBoundWithin(step *atomStep, slot int) bool {
	for _, o := range step.ops {
		if o.kind == opBind && o.slot == slot {
			return true
		}
	}
	return false
}

// flushPruned folds a drained runner's pruned-probe count into the
// caller-provided counter, when one is armed.
func flushPruned(r *Runner, opts Options) {
	if opts.Pruned != nil {
		if n := r.TakePruned(); n > 0 {
			opts.Pruned.Add(n)
		}
	}
}

// Hash-partitioned chase (distribution milestone 1): the semi-naive fixpoint
// runs over a storage.Store of P partitions, with rules classified at plan
// time as partition-local or spanning. The split is a property of the rules
// and of P, not of which driver runs: there is one driver (State.resume), and
// at P = 1 every rule is trivially local.
//
// A rule is partition-local when one term occupies the partitioning column of
// every body AND every head atom (LocalRule): a trigger then fixes that term
// to a ground value, so every matching body fact, every head fact it derives,
// and — for the restricted variant — every homomorphic image that could
// satisfy the head all carry the same routing value and live in one
// sub-instance. Local rules therefore run entirely inside their partition:
// trigger collection joins against the partition's own (smaller) indexes,
// head-satisfaction checks probe only the partition, and firings write to a
// partition-private shard — zero cross-partition coordination, which is the
// milestone-1 payoff and the shape milestone 2 distributes over RPC.
//
// Spanning rules (everything else) cannot be confined: a delta fact in one
// partition may join body atoms anywhere. Their triggers are enumerated
// during the per-partition sweep through runners bound to the whole store,
// whose access paths prune to one partition wherever the plan fixes the
// routing column, and shipped to a cross-partition exchange queue; the round
// barrier — thinner than a full-instance merge — dedupes the queue, fires the
// survivors with head facts routed by hash to their home partitions, then
// merges each partition's shards into its next delta.
//
// Any partition count yields the same certain answers and the same
// Steps/Rounds/NullsCreated (property-tested); only labelled-null names may
// differ, exactly as for parallelism.
package chase

import (
	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/storage"
)

// PartitionStats counts the driver's locality behaviour: how much of the
// chase ran coordination-free, how much had to cross partitions, and how
// often the cross-partition runners still pruned their probes.
type PartitionStats struct {
	// LocalFirings counts trigger firings of partition-local rules — work
	// done entirely inside one sub-instance.
	LocalFirings uint64
	// ShippedTriggers counts spanning-rule triggers shipped through the
	// cross-partition exchange queue and drained at a round barrier.
	ShippedTriggers uint64
	// PrunedProbes counts join-level probes that the chase's cross-partition
	// runners (spanning collection and head checks) pruned to a single
	// sub-instance.
	PrunedProbes uint64
}

// add accumulates one increment's counters into the receiver.
func (s *PartitionStats) add(o PartitionStats) {
	s.LocalFirings += o.LocalFirings
	s.ShippedTriggers += o.ShippedTriggers
	s.PrunedProbes += o.PrunedProbes
}

// PartitionTotals returns the locality counters accumulated across every
// Resume/Extend/Delete call on this state.
func (st *State) PartitionTotals() PartitionStats { return st.pstats }

// LocalRule reports whether the rule is partition-local for routing column
// col: one term (a shared variable, or one constant) occupies position col of
// every body and every head atom, and every atom is wide enough to reach the
// column. A trigger of such a rule grounds that term, pinning the entire
// firing — body joins, head facts, restricted head-satisfaction — to the
// term's home partition.
func LocalRule(rule *dependency.TGD, col int) bool {
	var pivot logic.Term
	first := true
	aligned := func(atoms []logic.Atom) bool {
		for _, a := range atoms {
			if a.Arity() <= col {
				return false
			}
			t := a.Args[col]
			if first {
				pivot, first = t, false
			} else if t != pivot {
				return false
			}
		}
		return true
	}
	return aligned(rule.Body) && aligned(rule.Head)
}

// localityOf classifies every rule of the set against the store's layout.
// With one partition nothing can cross a boundary: every rule is local.
func localityOf(rules *dependency.Set, store storage.Store) []bool {
	out := make([]bool, len(rules.Rules))
	for ri, rule := range rules.Rules {
		out[ri] = store.NumParts() == 1 || LocalRule(rule, store.Col())
	}
	return out
}

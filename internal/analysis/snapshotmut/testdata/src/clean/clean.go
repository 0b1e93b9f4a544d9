// Package clean exercises the copy-on-write patterns snapshotmut must
// accept: laundering through Clone/ExtendClone, mutating freshly built
// instances, and read-only access to loaded snapshots.
package clean

import (
	"sync/atomic"

	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/storage"
)

type wrap struct {
	ins   *storage.Instance
	pins  *storage.PartitionedInstance
	store storage.Store
}

type holder struct {
	data  atomic.Pointer[storage.Instance]
	parts atomic.Pointer[storage.PartitionedInstance]
	rules atomic.Pointer[dependency.Set]
	mat   atomic.Pointer[wrap]
}

func extendClone(h *holder, a logic.Atom) *storage.Instance {
	ins := h.data.Load().ExtendClone()
	ins.Insert(a)
	return ins
}

func fullClone(h *holder, a logic.Atom) *storage.Instance {
	m := h.mat.Load()
	ins := m.ins.Clone()
	ins.Remove(a)
	return ins
}

func freshInstance(a logic.Atom) *storage.Instance {
	ins := storage.NewInstance()
	ins.InsertAtom(a)
	return ins
}

func readOnly(h *holder, pred string) int {
	ins := h.data.Load()
	rel := ins.Relation(pred)
	if rel == nil {
		return 0
	}
	return len(rel.Tuples())
}

func persistentRules(h *holder, i int) (*dependency.Set, error) {
	set := h.rules.Load()
	return set.WithoutRule(i)
}

func extendClonePartitioned(h *holder, a logic.Atom) *storage.PartitionedInstance {
	pins := h.parts.Load().ExtendClone()
	pins.Insert(a)
	return pins
}

func launderedSubInstance(h *holder, a logic.Atom) {
	// ExtendClone launders the whole partitioned value: its sub-instances
	// are freshly owned and free to mutate.
	pins := h.parts.Load().ExtendClone()
	pins.Part(0).InsertAtom(a)
}

func readOnlyPartitioned(h *holder) int {
	pins := h.parts.Load()
	total := 0
	for p := 0; p < pins.NumParts(); p++ {
		total += pins.Part(p).Size()
	}
	return total
}

func forkStore(h *holder, a logic.Atom) storage.Store {
	// Fork is ExtendClone behind the Store interface: the result is freshly
	// owned, sub-instances included.
	store := h.mat.Load().store.Fork()
	store.Insert(a)
	store.Part(0).InsertAtom(a)
	return store
}

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
	ins *storage.Instance
}

type holder struct {
	data  atomic.Pointer[storage.Instance]
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

func mergeIntoExtension(h *holder, sh *storage.Shard) (*storage.Instance, error) {
	// A mutation's materialization work-set: an ExtendClone of the published
	// expansion, merged into at the chase's round barrier.
	ins := h.mat.Load().ins.ExtendClone()
	_, err := ins.MergeShards(sh)
	return ins, err
}

// Package a seeds snapshotmut violations: in-place mutation of values
// loaded from an atomic.Pointer, the exact races the copy-on-write
// discipline forbids.
package a

import (
	"sync/atomic"

	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/storage"
)

// wrap mimics the engine's materialization struct: a snapshot field hanging
// off a published pointer.
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

func mutateLoadedInstance(h *holder, a logic.Atom) {
	ins := h.data.Load()
	ins.Insert(a) // want "storage.Instance.Insert on a snapshot loaded from an atomic.Pointer"
}

func mutateChained(h *holder, a logic.Atom) {
	h.data.Load().Remove(a) // want "storage.Instance.Remove on a snapshot"
}

func mutateThroughField(h *holder, a logic.Atom) {
	m := h.mat.Load()
	m.ins.InsertAtom(a) // want "storage.Instance.InsertAtom on a snapshot"
}

func mutateRuleSet(h *holder) {
	set := h.rules.Load()
	set.Rules = nil // want "write to field Rules of a dependency.Set loaded from an atomic.Pointer"
}

func mutateLoadedPartitioned(h *holder, a logic.Atom) {
	pins := h.parts.Load()
	pins.Insert(a) // want "storage.PartitionedInstance.Insert on a snapshot loaded from an atomic.Pointer"
}

func mutatePartitionedThroughField(h *holder, a logic.Atom) {
	m := h.mat.Load()
	m.pins.Remove(a) // want "storage.PartitionedInstance.Remove on a snapshot"
}

func mutateSubInstance(h *holder, a logic.Atom) {
	// Part(i) hands back a sub-instance of the published value, not a copy.
	h.parts.Load().Part(0).InsertAtom(a) // want "storage.Instance.InsertAtom on a snapshot"
}

func mutateSubInstanceVar(h *holder, sh *storage.Shard) {
	pins := h.parts.Load()
	sub := pins.Part(1)
	sub.MergeShards(sh) // want "storage.Instance.MergeShards on a snapshot"
}

func mutateStoreThroughField(h *holder, a logic.Atom) {
	// The engine publishes its materialization as a storage.Store; the
	// interface is as immutable as either implementation behind it.
	m := h.mat.Load()
	m.store.Insert(a) // want "storage.Store.Insert on a snapshot"
}

func mutateStoreSubInstance(h *holder, sh *storage.Shard) {
	store := h.mat.Load().store
	store.Part(0).MergeShardsPart(0, sh) // want "storage.Instance.MergeShardsPart on a snapshot"
}

// snapshot mimics the engine's published generation; load its accessor. The
// result of a call returning *snapshot is as published as a direct Load.
type snapshot struct {
	base *storage.Instance
}

type ontology struct {
	snap atomic.Pointer[snapshot]
}

func (o *ontology) load() *snapshot { return o.snap.Load() }

func mutateThroughAccessor(o *ontology, a logic.Atom) {
	s := o.load()
	s.base.Insert(a) // want "storage.Instance.Insert on a snapshot"
}

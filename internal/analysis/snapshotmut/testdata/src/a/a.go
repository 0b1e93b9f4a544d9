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
	ins *storage.Instance
}

type holder struct {
	data  atomic.Pointer[storage.Instance]
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

func appendIntoLoaded(h *holder, next *storage.Instance) {
	// The chase's round-barrier append is as much a write as an Insert.
	ins := h.mat.Load().ins
	ins.Append(next) // want "storage.Instance.Append on a snapshot"
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

// Package clean exercises the writes mutpipeline must accept: publication
// from publish and newOntology, cache fills on a loaded snapshot, non-Ontology
// types with a colliding field name, and plain loads.
package clean

import "sync/atomic"

type snapshot struct {
	rules *int
	views atomic.Pointer[int]
}

type Ontology struct {
	snap     atomic.Pointer[snapshot]
	mutCount atomic.Uint64
}

func newOntology(first *snapshot) *Ontology {
	o := &Ontology{}
	o.snap.Store(first)
	return o
}

func (o *Ontology) publish(next *snapshot) {
	o.snap.Store(next)
}

func (o *Ontology) mutate() {
	prev := o.snap.Load()
	o.publish(&snapshot{rules: prev.rules})
	// Counters that are not the published pointer may move anywhere.
	o.mutCount.Add(1)
}

// storeView fills a cache of the snapshot the reader loaded.
func (o *Ontology) storeView(v *int) {
	s := o.snap.Load()
	s.views.CompareAndSwap(nil, v)
}

// notOntology has the same field name on a different type; the analyzer must
// not care.
type notOntology struct {
	snap atomic.Pointer[snapshot]
}

func (n *notOntology) anywhere(next *snapshot) {
	n.snap.Store(next)
}

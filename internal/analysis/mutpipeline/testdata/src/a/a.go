// Package a seeds mutpipeline violations: stores to an Ontology's published
// pointer from outside publish. The type is a structural stand-in for the
// engine's Ontology — the analyzer keys on the type and field names, not the
// import path.
package a

import "sync/atomic"

type snapshot struct {
	rules *int
	views atomic.Pointer[int]
}

type Ontology struct {
	snap atomic.Pointer[snapshot]
}

// publish is the one publisher: allowed.
func (o *Ontology) publish(next *snapshot) {
	o.snap.Store(next)
}

// refreshCache bypasses publish: it installs a snapshot from a helper that
// never took the writer lock.
func (o *Ontology) refreshCache(next *snapshot) {
	o.snap.Store(next) // want "snap.Store outside publish"
	o.snap.Swap(next)  // want "snap.Swap outside publish"
}

// freeFunc shows the rule applies to plain functions too.
func freeFunc(o *Ontology, next *snapshot) {
	o.snap.CompareAndSwap(nil, next) // want "snap.CompareAndSwap outside publish"
}

// reader loads freely, and fills its own snapshot's caches.
func (o *Ontology) reader(v *int) *snapshot {
	s := o.snap.Load()
	s.views.CompareAndSwap(nil, v)
	return s
}

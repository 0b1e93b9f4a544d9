// Package clean exercises what hotalloc must accept: allocation-free
// annotated functions, unannotated functions that allocate (the check is
// deliberately not transitive), and explicitly waived cold-path
// allocations.
package clean

type cursor struct {
	tuples []int
	pos    int
	n      int
}

type runner struct {
	regs  []int
	curs  []cursor
	cache []int
}

// step mirrors the executor's shape: slice reads, struct-field writes,
// pointers into preallocated backing arrays — none of it allocates.
//
//repro:hotpath
func (r *runner) step(depth, v int) bool {
	cur := &r.curs[depth]
	for cur.pos < cur.n {
		i := cur.pos
		cur.pos++
		if cur.tuples[i] == v {
			r.regs[depth] = v
			return true
		}
	}
	return false
}

// lazyInit waives a deliberate one-time allocation on an otherwise hot
// function.
//
//repro:hotpath
func (r *runner) lazyInit(n int) []int {
	if r.cache == nil {
		//repro:allow hotalloc one-time lazy initialization, amortized over the run
		r.cache = make([]int, n)
	}
	return r.cache
}

// coldHelper is not annotated: allocations here are none of hotalloc's
// business.
func coldHelper(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// hashIter is the steady-state streaming operator shape: the composite-key
// table and probe buffer live on the iterator and are reused across Next
// calls.
type hashIter struct {
	table   map[string][]int
	keyBuf  []byte
	posting []int
	pos     int
	regs    []int
}

// probeKey is an unannotated helper on a hot path, yet allocation-free in
// steady state — it appends into a buffer whose capacity survives across
// calls — so the allocation test, not the analyzer, vouches for it.
func (it *hashIter) probeKey(k byte) []byte {
	it.keyBuf = it.keyBuf[:0]
	it.keyBuf = append(it.keyBuf, k, 0)
	return it.keyBuf
}

// next probes the cached table; the map read through string(key) is the one
// construct that needs a waiver (the conversion is allocation-elided by the
// compiler when used directly as a map index).
//
//repro:hotpath
func (it *hashIter) next(probe byte) bool {
	if it.posting == nil {
		//repro:allow hotalloc map read through string(key) is allocation-elided by the compiler
		it.posting = it.table[string(it.probeKey(probe))]
	}
	for it.pos < len(it.posting) {
		i := it.posting[it.pos]
		it.pos++
		if i >= 0 {
			it.regs[0] = i
			return true
		}
	}
	return false
}

package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// config is what one run of one workload is given.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// quick shrinks every workload to a few departments and one set-up: the
	// smoke test's sizes, never the sizes a number is reported at.
	quick bool
}

// size picks the full or the smoke-test value of a workload dimension.
func (c config) size(full, quick int) int {
	if c.quick {
		return quick
	}
	return full
}

// workload is one named traffic mix. setup builds everything the operations
// need and warms it; its duration is the set-up metric.
type workload struct {
	name  string
	why   string
	setup func(cfg config) (state, error)
}

// state is a workload that has been set up.
type state interface {
	// clients returns the goroutines' worth of load: each client is driven
	// from its own goroutine, one operation at a time (closed loop).
	clients() []client
	// kinds names the operation kinds the clients report; kind 0 is the
	// workload's primary operation.
	kinds() []string
	// verify runs the checks that are too slow to run beside the load and
	// describes everything they found wrong.
	verify() []string
	// probe records the traced run's measurements that belong to no single
	// operation (storage costs, cache counters).
	probe(rec *recorder)
	close()
}

// client issues operations. do performs operation n and returns its kind, how
// long the caller waited for it, and an error if it failed or answered wrong.
// explain replays the operation do last performed, layer by layer, as children
// of the span root.
type client interface {
	do(n int) (kind int, d time.Duration, err error)
	explain(rec *recorder, root int)
	// rootSpan names the layer and span of this client's operations.
	rootSpan() (layer, name string)
	// sampling is how many of this client's operations pass between two
	// that a traced run records and replays; 0 means none.
	sampling() int
}

// rounds is how many equal slices the measured phase is cut into. The sandbox
// shares its two cores with other tenants, whose bursts last from seconds to
// minutes and only ever add time. So a run reports the median latency of its
// third-calmest slice (the lower quartile of the slices' medians) and the
// throughput of its third-fastest slice, which stay put while up to nine of
// the twelve slices are disturbed; the statistics over the whole phase are
// printed beside them as diagnostics.
const rounds = 12

// sample is one completed operation.
type sample struct {
	kind int
	ns   int64
}

// phase is the outcome of driving a state's clients for some time.
type phase struct {
	rounds    [][]sample      // per round, all clients' samples
	walls     []time.Duration // per round, until the last client finished its operation
	attempted int
	failed    int
	errs      []string
}

// latencies returns, per round, the latencies in milliseconds of one kind.
func (p *phase) latencies(kind int) [][]float64 {
	out := make([][]float64, len(p.rounds))
	for i, r := range p.rounds {
		for _, s := range r {
			if s.kind == kind {
				out[i] = append(out[i], float64(s.ns)/1e6)
			}
		}
	}
	return out
}

// p50 is the median latency of a kind in the calm slices: the lower quartile
// of the per-round medians.
func (p *phase) p50(kind int) float64 {
	var per []float64
	for _, r := range p.latencies(kind) {
		if len(r) > 0 {
			per = append(per, median(r))
		}
	}
	return percentile(per, 25)
}

// perSecond is the rate at which operations of a kind completed in the calm
// slices: the upper quartile of the per-round rates.
func (p *phase) perSecond(kind int) float64 {
	var per []float64
	for i, r := range p.latencies(kind) {
		per = append(per, float64(len(r))/p.walls[i].Seconds())
	}
	return percentile(per, 75)
}

// wall is the length of the whole phase.
func (p *phase) wall() time.Duration {
	var sum time.Duration
	for _, w := range p.walls {
		sum += w
	}
	return sum
}

// all returns every latency of a kind, in milliseconds.
func (p *phase) all(kind int) []float64 {
	var out []float64
	for _, r := range p.latencies(kind) {
		out = append(out, r...)
	}
	return out
}

// drive runs every client of st in its own goroutine for d, in `rounds`
// slices. With a recorder, the operations a client's sampling selects get a
// root span and are replayed through explain.
func drive(st state, d time.Duration, name string, rec *recorder) *phase {
	p := &phase{}
	cls := st.clients()
	next := make([]int, len(cls)) // per client, the next operation's number
	var opID int
	var mu sync.Mutex
	for r := 0; r < rounds; r++ {
		per := make([][]sample, len(cls))
		start := time.Now()
		deadline := start.Add(d / rounds)
		var wg sync.WaitGroup
		for ci, c := range cls {
			wg.Add(1)
			go func(ci int, c client) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					n := next[ci]
					next[ci]++
					t0 := time.Now()
					kind, lat, err := c.do(n)
					per[ci] = append(per[ci], sample{kind, lat.Nanoseconds()})
					if err != nil {
						mu.Lock()
						p.failed++
						if len(p.errs) < 5 {
							p.errs = append(p.errs, fmt.Sprintf("%s op %d: %v", name, n, err))
						}
						mu.Unlock()
					}
					if every := c.sampling(); rec != nil && every > 0 && n%every == 0 {
						mu.Lock()
						opID++
						id := opID
						mu.Unlock()
						layer, name := c.rootSpan()
						c.explain(rec, rec.root(id, layer, name, t0, lat))
					}
				}
			}(ci, c)
		}
		wg.Wait()
		p.walls = append(p.walls, time.Since(start))
		var round []sample
		for _, s := range per {
			round = append(round, s...)
			p.attempted += len(s)
		}
		p.rounds = append(p.rounds, round)
	}
	return p
}

// result is what one run reports.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	problems  []string
	metrics   []metric
}

// metric is one reported number. class is "e2e", "layer" or "diag".
type metric struct {
	name  string
	unit  string
	value float64
	class string
}

// setups is how many times a run sets the workload up; the set-up metric is
// the median of them, and the last one is the one measured.
const setups = 3

// runWorkload sets the workload up, drives it for cfg.seconds, checks its
// outputs and returns the end-to-end metrics (cfg.trace false) or the
// per-layer metrics (cfg.trace true).
func runWorkload(w workload, cfg config) (*result, *recorder, error) {
	n := setups
	if cfg.quick || cfg.trace {
		n = 1
	}
	var st state
	var setupS []float64
	for i := 0; i < n; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if st, err = w.setup(cfg); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer st.close()

	res := &result{workload: w.name}
	total := time.Duration(cfg.seconds * float64(time.Second))
	var rec *recorder
	var measured *phase
	if cfg.trace {
		// A short untraced phase first, so that the cost of tracing is
		// measured in the same process and on the same state.
		plain := drive(st, total*3/10, w.name, nil)
		rec = newRecorder()
		measured = drive(st, total*7/10, w.name, rec)
		st.probe(rec)
		res.metrics = layerMetrics(rec, plain, measured)
		measured.attempted += plain.attempted
		measured.failed += plain.failed
		measured.errs = append(plain.errs, measured.errs...)
	} else {
		measured = drive(st, total, w.name, nil)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.metrics = endToEndMetrics(st, measured, median(setupS), float64(ms.HeapAlloc)/(1<<20))
	}
	res.attempted = measured.attempted
	res.failed = measured.failed
	res.problems = append(measured.errs, st.verify()...)
	res.correct = res.failed == 0 && len(res.problems) == 0
	return res, rec, nil
}

// endToEndMetrics turns a measured phase into the numbers a user of the
// system would see. Kinds other than the primary one are diagnostics.
func endToEndMetrics(st state, p *phase, setupS, heapMB float64) []metric {
	all := p.all(0)
	ms := []metric{
		{"op_p50_ms", "ms", p.p50(0), "e2e"},
		{"ops_per_s", "1/s", p.perSecond(0), "e2e"},
		{"live_heap_mb", "MB", heapMB, "e2e"},
		{"setup_s", "s", setupS, "e2e"},
		{"op_p50_ms_whole", "ms", median(all), "diag"},
		{"ops_per_s_whole", "1/s", float64(len(all)) / p.wall().Seconds(), "diag"},
		{"op_samples", "count", float64(len(all)), "diag"},
		{"op_max_ms", "ms", percentile(all, 100), "diag"},
	}
	for k, name := range st.kinds() {
		if k == 0 {
			name = "op"
		} else {
			ms = append(ms,
				metric{name + "_p50_ms", "ms", p.p50(k), "diag"},
				metric{name + "s_per_s", "1/s", p.perSecond(k), "diag"})
		}
		// The 99th percentile needs ten samples beyond it in every round.
		if len(p.all(k)) >= rounds*1000 {
			var per []float64
			for _, r := range p.latencies(k) {
				per = append(per, percentile(r, 99))
			}
			ms = append(ms, metric{name + "_p99_ms", "ms", median(per), "diag"})
		}
	}
	return ms
}

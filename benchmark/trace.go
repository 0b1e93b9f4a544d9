package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The layers of this repository, in the order the README lists them. A span's
// Layer is one of these.
var layers = []string{"server", "parser", "classify", "rewrite", "eval", "chase", "storage", "rescache", "ontology"}

// span is one timed call into a layer. The root span of an operation (Parent
// 0) is the operation as its caller saw it, timed live. Every other span is a
// replay: after the operation returned, the benchmark called one of the
// layer's public functions on the same input and timed it. The benchmark
// cannot open a span inside the program, so a replay is recorded with its
// measured duration but laid out inside its parent, after the parent's
// earlier replays, which lets self time be computed by interval coverage and
// the file be read as a flame graph.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Replay  bool   `json:"replay"`

	next int64 // where this span's next replayed child starts
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans and counts in memory until the run ends. IDs start at
// 1 so that Parent 0 means "no parent".
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: make(map[string][]float64)}
}

// root records a live operation span and returns its ID.
func (r *recorder) root(opID int, layer, name string, start time.Time, d time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := span{ID: len(r.spans) + 1, OpID: opID, Layer: layer, Name: name}
	s.StartNS = start.Sub(r.epoch).Nanoseconds()
	s.EndNS = s.StartNS + d.Nanoseconds()
	s.next = s.StartNS
	r.spans = append(r.spans, s)
	return s.ID
}

// child records a replayed stage of duration d under parent and returns its ID.
func (r *recorder) child(parent int, layer, name string, d time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := &r.spans[parent-1]
	s := span{ID: len(r.spans) + 1, Parent: parent, OpID: p.OpID, Layer: layer, Name: name, Replay: true}
	s.StartNS = p.next
	s.EndNS = s.StartNS + d.Nanoseconds()
	s.next = s.StartNS
	p.next = s.EndNS
	r.spans = append(r.spans, s)
	return s.ID
}

// stage times f and records it as a replayed child of parent.
func (r *recorder) stage(parent int, layer, name string, f func()) int {
	t := time.Now()
	f()
	return r.child(parent, layer, name, time.Since(t))
}

// count records a count read at a layer boundary.
func (r *recorder) count(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[name] = append(r.counts[name], v)
}

// durations returns the durations, in nanoseconds, of every span called name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes maps each span ID to its duration minus the part of its interval
// that its children cover. Overlapping children are counted once, and a child
// reaching outside its parent is clipped to it.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		a, b := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
		if a < b {
			kids[p.ID] = append(kids[p.ID], iv{a, b})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, end int64
		end = s.StartNS
		for _, k := range ivs {
			if k.b <= end {
				continue
			}
			covered += k.b - max(k.a, end)
			end = k.b
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerShares attributes the time of the traced operations to layers. Within
// one operation each span's self time goes to its layer, and the layers'
// sums are taken as shares of their total, so that they add up to 1 even
// when the replayed stages together took longer than the live operation did.
// explained is the summed duration of the stages replayed directly under the
// root as a share of the live operation: 1 when the replays add up to what
// the caller waited for, less when the program does work no stage covers,
// more when a replay costs more than its part of the live operation did (a
// cache the live path hit, a floor measured with a handler of its own). Both
// are medians over the operations, like the latency they explain.
func layerShares(spans []span) (shares map[string]float64, explained float64) {
	self := selfTimes(spans)
	type op struct {
		byLayer             map[string]float64
		sum, root, replayed float64
		rootID              int
	}
	ops := make(map[int]*op)
	for _, s := range spans {
		if s.OpID == 0 {
			continue // probes outside any operation
		}
		o := ops[s.OpID]
		if o == nil {
			o = &op{byLayer: make(map[string]float64)}
			ops[s.OpID] = o
		}
		o.byLayer[s.Layer] += float64(self[s.ID])
		o.sum += float64(self[s.ID])
		if s.Parent == 0 {
			o.root, o.rootID = float64(s.dur()), s.ID
		}
	}
	for _, s := range spans {
		if o := ops[s.OpID]; o != nil && s.Parent == o.rootID {
			o.replayed += float64(s.dur())
		}
	}
	perLayer := make(map[string][]float64)
	var perOp []float64
	for _, o := range ops {
		if o.sum == 0 || o.root == 0 {
			continue
		}
		for _, l := range layers {
			perLayer[l] = append(perLayer[l], o.byLayer[l]/o.sum)
		}
		perOp = append(perOp, o.replayed/o.root)
	}
	shares = make(map[string]float64)
	for l, vs := range perLayer {
		shares[l] = median(vs)
	}
	return shares, median(perOp)
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string, header map[string]any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"header": header, "spans": r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Package server is the HTTP serving layer over live ontologies: a
// multi-tenant registry of named repro.Ontology instances held hot behind
// JSON endpoints. It is a thin shim by design — reads are a lockless pass
// through the ontologies' published snapshots (the handler adds no
// synchronization of its own; AnswerCtx evaluates an immutable instance
// loaded through an atomic pointer), and writes drive the unified mutation
// pipeline, with concurrent fact insertions opportunistically coalesced into
// one staged batch per chase delta (see batcher).
//
// Every request runs under a context deadline: a per-request ?timeout=
// duration, clamped to the server's maximum, or the configured default. The
// context threads through the new ctx-first ontology API, so an expired
// deadline aborts rewriting, chase rounds and join execution mid-flight —
// queries return 504 without ever corrupting a published snapshot, and
// canceled mutations roll back to the pre-mutation state.
//
// Endpoints (Go 1.22 pattern routing):
//
//	GET    /healthz
//	GET    /v1/ontologies
//	PUT    /v1/ontologies/{name}         body: ontology program text
//	DELETE /v1/ontologies/{name}
//	GET    /v1/ontologies/{name}/stats
//	POST   /v1/ontologies/{name}/query   body: {"query": "q(X) :- p(X) ."}
//
// Queries support a ?limit=N query parameter (or "limit" body field)
// bounding the distinct answers produced — the streaming executor stops as
// soon as the bound is reached — and an NDJSON streaming mode ("stream":
// true in the body, or Accept: application/x-ndjson) that flushes one JSON
// array per answer as the executor produces it, followed by a trailing
// object line carrying the count (and the error, if evaluation died
// mid-stream after the status line was already committed).
//
//	POST   /v1/ontologies/{name}/facts   body: {"facts": "p(a) . p(b) ."}
//	DELETE /v1/ontologies/{name}/facts   body: {"facts": "p(a) ."}
//	POST   /v1/ontologies/{name}/rules   body: {"rule": "p(X) -> q(X) ."}
//	DELETE /v1/ontologies/{name}/rules/{label}
//	POST   /v1/ontologies/{name}/csv/{pred}  body: CSV records
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// Config tunes the server.
type Config struct {
	// DefaultTimeout is applied to requests that carry no ?timeout=
	// parameter (0 = no default deadline).
	DefaultTimeout time.Duration
	// MaxTimeout clamps every request deadline, including explicit ones
	// (0 = no clamp).
	MaxTimeout time.Duration
	// Answer are the default answering options (mode, parallelism, budgets)
	// applied to query requests; per-request fields override.
	Answer repro.Options
	// AnswerCacheBytes is the answer-view cache budget applied to every
	// ontology registered with the server (Add and PUT alike). 0 means the
	// library default for serving, repro.DefaultAnswerCacheBytes; negative
	// disables caching.
	AnswerCacheBytes int64
	// MaxConcurrent caps requests executing at once (0 = unlimited).
	// Requests beyond the cap queue for a slot.
	MaxConcurrent int
	// MaxQueue bounds the requests allowed to wait for a slot when
	// MaxConcurrent is saturated; arrivals past it are shed immediately
	// with 429 and a Retry-After header. 0 means no queueing: every
	// request past the concurrency cap is shed.
	MaxQueue int
}

// Server is a multi-tenant HTTP front end over live ontologies.
type Server struct {
	cfg Config

	mu      sync.RWMutex
	tenants map[string]*tenant

	// sem, queued and shed implement admission control: a semaphore of
	// MaxConcurrent slots, an atomic count of requests waiting for one,
	// and the running total of requests shed with 429.
	sem    chan struct{}
	queued atomic.Int64
	shed   atomic.Uint64
}

// tenant is one named ontology plus its write batcher.
type tenant struct {
	ont     *repro.Ontology
	batcher *batcher
}

// New creates an empty server.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, tenants: make(map[string]*tenant)}
	if cfg.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	return s
}

// cacheBudget resolves Config.AnswerCacheBytes (0 = serving default,
// negative = disabled).
func (s *Server) cacheBudget() int64 {
	switch {
	case s.cfg.AnswerCacheBytes < 0:
		return 0
	case s.cfg.AnswerCacheBytes == 0:
		return repro.DefaultAnswerCacheBytes
	default:
		return s.cfg.AnswerCacheBytes
	}
}

// Add registers an ontology under a name, replacing any previous holder,
// and applies the server's answer-cache budget to it.
func (s *Server) Add(name string, ont *repro.Ontology) {
	ont.SetAnswerCacheBudget(s.cacheBudget())
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tenants[name] = &tenant{ont: ont, batcher: newBatcher(ont)}
}

// Ontology returns the named ontology, or nil.
func (s *Server) Ontology(name string) *repro.Ontology {
	if t := s.lookup(name); t != nil {
		return t.ont
	}
	return nil
}

func (s *Server) lookup(name string) *tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tenants[name]
}

// Handler builds the routing table. The returned handler is safe for
// concurrent use and adds no locking on the query path beyond the registry
// lookup — snapshot concurrency lives inside Ontology.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /v1/ontologies", s.handleList)
	mux.HandleFunc("PUT /v1/ontologies/{name}", s.handleCreate)
	mux.HandleFunc("DELETE /v1/ontologies/{name}", s.handleDelete)
	mux.HandleFunc("GET /v1/ontologies/{name}/stats", s.tenantHandler(s.handleStats))
	mux.HandleFunc("POST /v1/ontologies/{name}/query", s.tenantHandler(s.handleQuery))
	mux.HandleFunc("POST /v1/ontologies/{name}/facts", s.tenantHandler(s.handleAddFacts))
	mux.HandleFunc("DELETE /v1/ontologies/{name}/facts", s.tenantHandler(s.handleDeleteFacts))
	mux.HandleFunc("POST /v1/ontologies/{name}/rules", s.tenantHandler(s.handleAddRule))
	mux.HandleFunc("DELETE /v1/ontologies/{name}/rules/{label}", s.tenantHandler(s.handleRemoveRule))
	mux.HandleFunc("POST /v1/ontologies/{name}/csv/{pred}", s.tenantHandler(s.handleLoadCSV))
	return s.admit(mux)
}

// admit is the admission-control middleware: with MaxConcurrent set, a
// request either takes a semaphore slot immediately, queues for one while
// fewer than MaxQueue requests are already waiting, or is shed with 429
// and a Retry-After hint. Health checks bypass admission so a saturated
// server still reports alive.
func (s *Server) admit(next http.Handler) http.Handler {
	if s.sem == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
				s.queued.Add(-1)
				s.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				writeErr(w, http.StatusTooManyRequests, errors.New("server saturated: concurrency and queue limits reached"))
				return
			}
			select {
			case s.sem <- struct{}{}:
				s.queued.Add(-1)
			case <-r.Context().Done():
				s.queued.Add(-1)
				writeErr(w, errStatus(r.Context().Err()), r.Context().Err())
				return
			}
		}
		defer func() { <-s.sem }()
		next.ServeHTTP(w, r)
	})
}

// tenantHandler resolves {name} and arms the per-request deadline before
// dispatching; unknown names 404 without consuming the body.
func (s *Server) tenantHandler(h func(http.ResponseWriter, *http.Request, *tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := s.lookup(r.PathValue("name"))
		if t == nil {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no ontology named %q", r.PathValue("name")))
			return
		}
		d := s.cfg.DefaultTimeout
		if q := r.URL.Query().Get("timeout"); q != "" {
			parsed, err := time.ParseDuration(q)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad timeout %q: %v", q, err))
				return
			}
			d = parsed
		}
		if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
			d = s.cfg.MaxTimeout
		}
		if d > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r, t)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string]any{"ontologies": names})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	src, err := readBody(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ont, err := repro.Parse(string(src))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.Add(name, ont)
	writeJSON(w, http.StatusCreated, map[string]any{
		"name":  name,
		"rules": ont.Rules().Len(),
		"facts": ont.Data().Size(),
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	_, ok := s.tenants[name]
	delete(s.tenants, name)
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no ontology named %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, t *tenant) {
	m := t.ont.MaterializationStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"rules":           t.ont.Rules().Len(),
		"baseFacts":       t.ont.Data().Size(),
		"materialization": m,
		// Surfaced at top level: a growing value on a serving process means
		// incremental maintenance is being bypassed (e.g. RemoveRule against
		// a provenance-less cache forcing silent full rebuilds).
		"fullRebuilds": m.FullRebuilds,
		// Answer-view cache counters for this tenant's ontology.
		"answerCache": m.AnswerCache,
		// Admission counter; server-wide, not per-tenant — the semaphore is
		// shared.
		"shedRequests": s.shed.Load(),
	})
}

// queryRequest is the body of POST .../query. Zero-valued fields fall back
// to the server's configured answering defaults.
type queryRequest struct {
	Query       string `json:"query"`
	Mode        string `json:"mode,omitempty"` // "auto" | "rewrite" | "chase"
	Parallelism int    `json:"parallelism,omitempty"`
	MaxSteps    int    `json:"maxSteps,omitempty"`
	MaxRounds   int    `json:"maxRounds,omitempty"`
	// Limit bounds the distinct answers produced (0 = all); the ?limit=
	// query parameter overrides it.
	Limit int `json:"limit,omitempty"`
	// Stream switches the response to NDJSON: one JSON array per answer,
	// flushed as produced, then a trailing object with the count. The
	// Accept: application/x-ndjson header has the same effect.
	Stream bool `json:"stream,omitempty"`
	// NoCache bypasses the answer-view cache for this request: evaluate
	// from scratch, cache nothing.
	NoCache bool `json:"noCache,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req queryRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	opts := s.cfg.Answer
	switch req.Mode {
	case "", "auto":
	case "rewrite":
		opts.Mode = repro.ModeRewrite
	case "chase":
		opts.Mode = repro.ModeChase
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown mode %q", req.Mode))
		return
	}
	// Parallelism sizes allocations made under the writer lock (a chase
	// worker's goroutine, null generator and shard): an unchecked count is
	// one request taking every tenant down.
	if req.Parallelism != 0 {
		if req.Parallelism < 1 || req.Parallelism > repro.MaxParallelism {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad parallelism %d: want 1..%d", req.Parallelism, repro.MaxParallelism))
			return
		}
		opts.Parallelism = req.Parallelism
	}
	if req.MaxSteps > 0 {
		opts.MaxSteps = req.MaxSteps
	}
	if req.MaxRounds > 0 {
		opts.MaxRounds = req.MaxRounds
	}
	if req.Limit > 0 {
		opts.Limit = req.Limit
	}
	if req.NoCache {
		opts.NoCache = true
	}
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q: want a non-negative integer", q))
			return
		}
		opts.Limit = n
	}
	if req.Stream || strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
		s.streamQuery(w, r, t, req.Query, opts)
		return
	}
	ans, err := t.ont.AnswerCtx(r.Context(), req.Query, opts)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count":   ans.Len(),
		"answers": renderAnswers(ans),
	})
}

// streamQuery answers in NDJSON: one JSON array per answer, flushed to the
// client as the streaming executor produces it, then one trailing JSON
// object ({"count": N}, plus "error" if evaluation failed after rows were
// already on the wire). The header is written lazily so a failure before
// the first answer still gets a proper error status; after the first row
// the status is committed and the error can only ride in the trailer.
//
// A stream is one AnswerEach: it replays a cached view or evaluates on its
// own, so concurrent identical streams each evaluate until one of them has
// filled the view.
func (s *Server) streamQuery(w http.ResponseWriter, r *http.Request, t *tenant, query string, opts repro.Options) {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)
	started := false
	start := func() {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		started = true
	}
	n := 0
	yield := func(a repro.Answer) bool {
		if !started {
			start()
		}
		row := make([]string, len(a))
		for i, x := range a {
			row[i] = x.String()
		}
		if enc.Encode(row) != nil {
			return false // client went away; stop the executor
		}
		if flusher != nil {
			flusher.Flush()
		}
		n++
		return true
	}
	err := t.ont.AnswerEach(r.Context(), query, opts, yield)
	if err != nil && !started {
		writeErr(w, errStatus(err), err)
		return
	}
	if !started {
		start()
	}
	trailer := map[string]any{"count": n}
	if err != nil {
		trailer["error"] = err.Error()
	}
	_ = enc.Encode(trailer)
	if flusher != nil {
		flusher.Flush()
	}
}

// factsRequest is the body of POST/DELETE .../facts: ground facts in
// ontology text syntax, e.g. "person(alice) . person(bob) .".
type factsRequest struct {
	Facts string `json:"facts"`
}

func (s *Server) handleAddFacts(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req factsRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := t.batcher.AddFacts(r.Context(), req.Facts)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"added":     res.added,
		"coalesced": res.coalesced,
	})
}

func (s *Server) handleDeleteFacts(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req factsRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	n, err := t.ont.DeleteFactCtx(r.Context(), req.Facts)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": n})
}

// ruleRequest is the body of POST .../rules.
type ruleRequest struct {
	Rule string `json:"rule"`
}

func (s *Server) handleAddRule(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req ruleRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := t.ont.AddRuleCtx(r.Context(), req.Rule); err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"rules": t.ont.Rules().Len()})
}

func (s *Server) handleRemoveRule(w http.ResponseWriter, r *http.Request, t *tenant) {
	label := r.PathValue("label")
	if err := t.ont.RemoveRuleCtx(r.Context(), label); err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"rules": t.ont.Rules().Len()})
}

func (s *Server) handleLoadCSV(w http.ResponseWriter, r *http.Request, t *tenant) {
	n, err := t.ont.LoadCSVCtx(r.Context(), r.PathValue("pred"), r.Body)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"added": n})
}

// renderAnswers flattens an answer set into sorted string tuples for JSON.
func renderAnswers(ans *repro.Answers) [][]string {
	out := make([][]string, 0, ans.Len())
	for _, t := range ans.Sorted() {
		row := make([]string, len(t))
		for i, x := range t {
			row[i] = x.String()
		}
		out = append(out, row)
	}
	return out
}

// errStatus maps an answering/mutation error onto an HTTP status: an expired
// request deadline is a gateway timeout, a client disconnect the
// conventional 499, anything else a plain bad request (the engine rejected
// the input or its budgets).
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]any{"error": err.Error()})
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func readBody(r *http.Request) ([]byte, error) {
	const maxBody = 64 << 20
	body := http.MaxBytesReader(nil, r.Body, maxBody)
	defer body.Close()
	return io.ReadAll(body)
}

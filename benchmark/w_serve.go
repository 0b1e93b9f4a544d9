package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/storage"
)

const (
	tenant    = "u"
	queryPath = "/v1/ontologies/" + tenant + "/query"
	factsPath = "/v1/ontologies/" + tenant + "/facts"
	// zipfS is the skew of the query draw: with s = 1.1 over 2 000 queries the
	// hottest 20 take about half of the requests.
	zipfS = 1.1
	// cacheShare is the part of the whole pool's answer views the answer
	// cache is sized to hold, so that hits, misses and evictions all occur.
	cacheShare = 0.6
)

// poolQuery is one selective query of the serving workloads.
type poolQuery struct {
	text string
	// body is the JSON request asking for the query in mode auto and chase.
	body [2][]byte
	// want is the answer count over the generated data. grows marks the
	// queries that students inserted by serve_live_update can add answers to.
	want  int
	grows bool
}

// queriesPerDept is how many queries buildPool writes per department.
const queriesPerDept = 4

// buildPool writes four selective queries per department, each bound to one
// constant, and works out their answer counts from the generated facts alone.
func buildPool(depts int, data *storage.Instance, rng *rand.Rand) []poolQuery {
	enrolled := make(map[string]int) // course -> students taking it
	for _, t := range data.Relation("takesCourse").Tuples() {
		enrolled[t[1].Name]++
	}
	var pool []poolQuery
	add := func(want int, grows bool, format string, args ...any) {
		q := poolQuery{text: fmt.Sprintf(format, args...), want: want, grows: grows}
		for m, mode := range []string{"auto", "chase"} {
			q.body[m], _ = json.Marshal(map[string]string{"query": q.text, "mode": mode})
		}
		pool = append(pool, q)
	}
	for d := 0; d < depts; d++ {
		p := rng.Intn(3)
		add(3, false, "q(X) :- worksFor(X, dept%d) .", d)
		add(1, false, "q(C) :- takesCourse(student%d_%d, C) .", d, rng.Intn(10))
		add(3, false, "q(X, C) :- worksFor(X, dept%d), teacherOf(X, C) .", d)
		add(enrolled[fmt.Sprintf("course%d_%d", d, p)], true, "q(S) :- taughtBy(S, prof%d_%d) .", d, p)
	}
	return pool
}

// cacheBudget answers every pool query once with an unbounded cache and
// returns cacheShare of the bytes the views took; it also checks the counts.
func cacheBudget(ont *repro.Ontology, pool []poolQuery) (int64, error) {
	ont.SetAnswerCacheBudget(1 << 40)
	defer ont.SetAnswerCacheBudget(0)
	for _, q := range pool {
		ans, err := ont.AnswerCtx(ctx, q.text, repro.Options{})
		if err != nil {
			return 0, err
		}
		if ans.Len() != q.want {
			return 0, fmt.Errorf("%s: got %d answers, the data says %d", q.text, ans.Len(), q.want)
		}
	}
	return int64(cacheShare * float64(ont.AnswerCacheStats().Bytes)), nil
}

// httpClient is one keep-alive connection to the server under test.
type httpClient struct {
	c    *http.Client
	base string
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{c: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, base: base}
}

// call sends one request and decodes the JSON reply into out. Any status but
// 200 is an error.
func (h *httpClient) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}

type queryReply struct {
	Count   int        `json:"count"`
	Answers [][]string `json:"answers"`
}

// reader draws pool queries with a Zipf distribution and asks the server.
type reader struct {
	http  *httpClient
	pool  []poolQuery
	perm  []int // a permutation of the departments, so that the hot ones differ by seed
	zipf  *rand.Zipf
	modes int // 1: always auto; 2: auto and chase alternate
	kind  int
	every int
	// traced runs only
	handler http.Handler
	ont     *repro.Ontology
	mirror  *repro.Ontology // receives every read too, so that it holds the same views
	last    *poolQuery
}

func newReader(base string, pool []poolQuery, seed int64) *reader {
	rng := rand.New(rand.NewSource(seed))
	return &reader{
		http:  newHTTPClient(base),
		pool:  pool,
		perm:  rng.Perm(len(pool) / queriesPerDept),
		zipf:  rand.NewZipf(rng, zipfS, 1, uint64(len(pool)-1)),
		modes: 1,
	}
}

// draw picks the pool index of the next query. Rank k of the Zipf draw is
// query k%4 of the department at position k/4 of the permutation: which
// departments are hot depends on the seed, how the four query shapes share
// the hot ranks does not.
func (r *reader) draw() int {
	k := int(r.zipf.Uint64())
	return r.perm[k/queriesPerDept]*queriesPerDept + k%queriesPerDept
}

func (r *reader) sampling() int              { return r.every }
func (r *reader) rootSpan() (string, string) { return "server", "server.request" }

func (r *reader) do(n int) (int, time.Duration, error) {
	q := &r.pool[r.draw()]
	r.last = q
	mode := n % r.modes
	var reply queryReply
	t0 := time.Now()
	err := r.http.call("POST", queryPath, q.body[mode], &reply)
	d := time.Since(t0)
	if err == nil && (reply.Count < q.want || reply.Count > q.want && !q.grows) {
		err = fmt.Errorf("%s: got %d answers, want %d", q.text, reply.Count, q.want)
	}
	if r.mirror != nil {
		_, _ = r.mirror.AnswerCtx(ctx, q.text, repro.Options{Mode: answerModes[mode]})
	}
	return r.kind, d, err
}

// explain replays a served read from the outside in: the same connection's
// round trip to a handler that does nothing, the server's handler without a
// socket, the ontology's answer without the server, the parse without the
// ontology.
func (r *reader) explain(rec *recorder, root int) {
	var ok map[string]any
	rec.stage(root, "server", "server.roundtrip", func() { _ = r.http.call("GET", "/healthz", nil, &ok) })
	h := rec.stage(root, "server", "server.handler", func() {
		req := httptest.NewRequest("POST", queryPath, bytes.NewReader(r.last.body[0]))
		r.handler.ServeHTTP(httptest.NewRecorder(), req)
	})
	a := rec.stage(h, "rescache", "rescache.warm_answer", func() { _, _ = r.ont.AnswerCtx(ctx, r.last.text, repro.Options{}) })
	rec.stage(a, "parser", "parser.parse", func() { _, _ = parser.ParseQuery(r.last.text) })
}

// serveRead is the serve_read_zipf workload.
type serveRead struct {
	srv     *httptest.Server
	ont     *repro.Ontology
	pool    []poolQuery
	readers []*reader
	budget  int64
	before  repro.AnswerCacheStats
}

// readClients is how many connections issue reads: the sandbox has two cores,
// and the server runs in the client's process.
const readClients = 2

func setupServeRead(cfg config) (state, error) {
	depts := cfg.size(500, 4)
	data := datagen.UniversityData(depts, cfg.seed)
	s := &serveRead{ont: repro.New(datagen.University(), data)}
	s.pool = buildPool(depts, data, rand.New(rand.NewSource(cfg.seed)))
	var err error
	if s.budget, err = cacheBudget(s.ont, s.pool); err != nil {
		return nil, err
	}
	api := server.New(server.Config{AnswerCacheBytes: s.budget})
	api.Add(tenant, s.ont)
	handler := api.Handler()
	s.srv = httptest.NewServer(handler)
	for c := 0; c < readClients; c++ {
		r := newReader(s.srv.URL, s.pool, cfg.seed*int64(readClients)+int64(c))
		if cfg.trace {
			r.every, r.handler, r.ont = 200, handler, s.ont
		}
		s.readers = append(s.readers, r)
		// Fill the cache to its steady state: several requests per pool entry.
		for n := 0; n < cfg.size(5000, 50); n++ {
			if _, _, err := r.do(n); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	s.before = s.ont.AnswerCacheStats()
	return s, nil
}

func (s *serveRead) clients() []client {
	var out []client
	for _, r := range s.readers {
		out = append(out, r)
	}
	return out
}

func (s *serveRead) kinds() []string { return []string{"read"} }

func (s *serveRead) close() {
	s.srv.Close()
	for _, r := range s.readers {
		r.http.c.CloseIdleConnections()
	}
}

func (s *serveRead) probe(rec *recorder) {
	probeStorage(rec, s.ont.Data(), freshStudent)
	recordCacheCounts(rec, s.before, s.ont.AnswerCacheStats())
	rec.count("rescache.budget_bytes", float64(s.budget))
}

// recordCacheCounts records what the answer cache did between two readings.
func recordCacheCounts(rec *recorder, before, after repro.AnswerCacheStats) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses > 0 {
		rec.count("rescache.hit_ratio", float64(hits)/float64(hits+misses))
	}
	rec.count("rescache.evictions", float64(after.Evictions-before.Evictions))
	rec.count("rescache.maintained", float64(after.DeltaMaintained-before.DeltaMaintained))
}

// verify asks the server for every pool query once more and compares each
// answer set with the chase's, computed without server or cache.
func (s *serveRead) verify() []string {
	return compareServed(s.readers[0].http, s.ont, s.pool, 1)
}

// compareServed fetches every step-th pool query in both modes and compares
// the served answers with want's chase-mode answers.
func compareServed(h *httpClient, want *repro.Ontology, pool []poolQuery, step int) []string {
	var problems []string
	for i := 0; i < len(pool); i += step {
		q := pool[i]
		ans, err := want.AnswerCtx(ctx, q.text, repro.Options{Mode: repro.ModeChase, NoCache: true})
		if err != nil {
			return append(problems, fmt.Sprintf("%s: %v", q.text, err))
		}
		expect := fmt.Sprint(renderSorted(ans))
		for m := range q.body {
			var reply queryReply
			if err := h.call("POST", queryPath, q.body[m], &reply); err != nil {
				problems = append(problems, err.Error())
			} else if got := fmt.Sprint(reply.Answers); got != expect {
				problems = append(problems, fmt.Sprintf("%s (mode %d): served %s, want %s", q.text, m, got, expect))
			}
			if len(problems) >= 5 {
				return problems
			}
		}
	}
	return problems
}

// renderSorted renders answers the way the server does.
func renderSorted(ans *repro.Answers) [][]string {
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

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/datagen"
)

const familyProgram = `
	parent(X, Y) -> ancestor(X, Y) .
	parent(X, Y), ancestor(Y, Z) -> ancestor(X, Z) .
	parent(ada, bob) .
	parent(bob, cyd) .
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doJSON fires one request and decodes the JSON response.
func doJSON(t *testing.T, method, url string, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%s %s: non-JSON response %q: %v", method, url, raw, err)
	}
	return resp.StatusCode, m
}

func queryCount(t *testing.T, base, name, q string) int {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"query": q})
	st, m := doJSON(t, "POST", base+"/v1/ontologies/"+name+"/query", string(body))
	if st != http.StatusOK {
		t.Fatalf("query returned %d: %v", st, m)
	}
	return int(m["count"].(float64))
}

func TestServerLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	if st, m := doJSON(t, "GET", ts.URL+"/healthz", ""); st != http.StatusOK || m["ok"] != true {
		t.Fatalf("healthz: %d %v", st, m)
	}

	// Unknown tenant 404s on every tenant route.
	if st, _ := doJSON(t, "POST", ts.URL+"/v1/ontologies/nope/query", `{"query":"q(X) :- p(X) ."}`); st != http.StatusNotFound {
		t.Fatalf("expected 404 for unknown ontology, got %d", st)
	}

	// Create.
	st, m := doJSON(t, "PUT", ts.URL+"/v1/ontologies/fam", familyProgram)
	if st != http.StatusCreated {
		t.Fatalf("create: %d %v", st, m)
	}
	if m["rules"].(float64) != 2 || m["facts"].(float64) != 2 {
		t.Fatalf("create reported %v", m)
	}
	// A malformed program is rejected.
	if st, _ := doJSON(t, "PUT", ts.URL+"/v1/ontologies/bad", "p(X ->"); st != http.StatusBadRequest {
		t.Fatalf("expected 400 for bad program, got %d", st)
	}

	// List.
	if st, m := doJSON(t, "GET", ts.URL+"/v1/ontologies", ""); st != http.StatusOK {
		t.Fatalf("list: %d %v", st, m)
	} else if names := m["ontologies"].([]any); len(names) != 1 || names[0] != "fam" {
		t.Fatalf("list: %v", names)
	}

	// Query: ancestor closure of a 2-chain has 3 pairs.
	if n := queryCount(t, ts.URL, "fam", "q(X, Y) :- ancestor(X, Y) ."); n != 3 {
		t.Fatalf("ancestor count = %d, want 3", n)
	}

	// Write: extending the chain adds ancestors.
	st, m = doJSON(t, "POST", ts.URL+"/v1/ontologies/fam/facts", `{"facts": "parent(cyd, dee) ."}`)
	if st != http.StatusOK || m["added"].(float64) != 1 {
		t.Fatalf("add facts: %d %v", st, m)
	}
	if n := queryCount(t, ts.URL, "fam", "q(X, Y) :- ancestor(X, Y) ."); n != 6 {
		t.Fatalf("ancestor count after insert = %d, want 6", n)
	}

	// Delete fact: DRed repair shrinks the closure back.
	st, m = doJSON(t, "DELETE", ts.URL+"/v1/ontologies/fam/facts", `{"facts": "parent(cyd, dee) ."}`)
	if st != http.StatusOK || m["removed"].(float64) != 1 {
		t.Fatalf("delete facts: %d %v", st, m)
	}
	if n := queryCount(t, ts.URL, "fam", "q(X, Y) :- ancestor(X, Y) ."); n != 3 {
		t.Fatalf("ancestor count after delete = %d, want 3", n)
	}

	// Rule mutation: derive siblings, then retract the rule.
	st, m = doJSON(t, "POST", ts.URL+"/v1/ontologies/fam/rules", `{"rule": "ancestor(X, Y) -> related(X, Y) ."}`)
	if st != http.StatusOK || m["rules"].(float64) != 3 {
		t.Fatalf("add rule: %d %v", st, m)
	}
	if n := queryCount(t, ts.URL, "fam", "q(X, Y) :- related(X, Y) ."); n != 3 {
		t.Fatalf("related count = %d, want 3", n)
	}
	label := ""
	{
		rules := s.Ontology("fam").Rules().Rules
		label = rules[len(rules)-1].Label
	}
	st, m = doJSON(t, "DELETE", ts.URL+"/v1/ontologies/fam/rules/"+label, "")
	if st != http.StatusOK || m["rules"].(float64) != 2 {
		t.Fatalf("remove rule: %d %v", st, m)
	}
	if n := queryCount(t, ts.URL, "fam", "q(X, Y) :- related(X, Y) ."); n != 0 {
		t.Fatalf("related count after rule removal = %d, want 0", n)
	}

	// CSV load.
	st, m = doJSON(t, "POST", ts.URL+"/v1/ontologies/fam/csv/parent", "dee,eve\neve,fay\n")
	if st != http.StatusOK || m["added"].(float64) != 2 {
		t.Fatalf("csv: %d %v", st, m)
	}

	// Stats reflect the serving state.
	if st, m := doJSON(t, "GET", ts.URL+"/v1/ontologies/fam/stats", ""); st != http.StatusOK {
		t.Fatalf("stats: %d %v", st, m)
	} else if m["baseFacts"].(float64) != 4 {
		t.Fatalf("stats baseFacts = %v, want 4", m["baseFacts"])
	}

	// Tenant teardown.
	if st, _ := doJSON(t, "DELETE", ts.URL+"/v1/ontologies/fam", ""); st != http.StatusOK {
		t.Fatalf("delete ontology: %d", st)
	}
	if st, _ := doJSON(t, "DELETE", ts.URL+"/v1/ontologies/fam", ""); st != http.StatusNotFound {
		t.Fatalf("re-delete should 404, got %d", st)
	}
}

// TestQueryDeadline is the serving half of the ISSUE acceptance criterion: a
// 1ms-deadline query against a materialization-scale instance returns 504
// (context.DeadlineExceeded) promptly, and the published snapshot is not
// corrupted — the same query without a deadline then answers correctly.
func TestQueryDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ont := repro.New(datagen.University(), datagen.UniversityData(32, 1))
	s.Add("uni", ont)

	query := `{"query": "q(X) :- person(X) .", "mode": "chase"}`
	start := time.Now()
	st, m := doJSON(t, "POST", ts.URL+"/v1/ontologies/uni/query?timeout=1ms", query)
	elapsed := time.Since(start)
	if st != http.StatusGatewayTimeout {
		t.Fatalf("deadline query: status %d %v, want 504", st, m)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline query took %v; cancellation is not prompt", elapsed)
	}
	// The snapshot survived: the full query answers every person.
	n := queryCount(t, ts.URL, "uni", "q(X) :- person(X) .")
	if want := 32 * 13; n != want { // 3 profs + 10 students per department
		t.Fatalf("post-timeout query count = %d, want %d", n, want)
	}
}

// TestWriteDeadlineRollsBack exercises mutation cancellation over HTTP: an
// insert under an impossible deadline must not change the answers.
func TestWriteDeadlineRollsBack(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ont := repro.New(datagen.University(), datagen.UniversityData(24, 1))
	s.Add("uni", ont)

	before := queryCount(t, ts.URL, "uni", "q(X) :- person(X) .")

	var facts strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&facts, "graduateStudent(late%d) . ", i)
	}
	body, _ := json.Marshal(map[string]string{"facts": facts.String()})
	st, m := doJSON(t, "POST", ts.URL+"/v1/ontologies/uni/facts?timeout=1ms", string(body))
	if st == http.StatusOK {
		// With the materialization not yet built the mutation can win the
		// race against a 1ms deadline; only a non-OK outcome is interesting.
		t.Skipf("mutation beat the deadline: %v", m)
	}
	if st != http.StatusGatewayTimeout && st != 499 {
		t.Fatalf("canceled write: status %d %v", st, m)
	}
	after := queryCount(t, ts.URL, "uni", "q(X) :- person(X) .")
	if after != before {
		t.Fatalf("canceled write changed answers: %d -> %d", before, after)
	}
}

// TestBatcherCoalesces drives many concurrent fact insertions through the
// batcher and verifies (a) every fact landed, (b) at least one batch was
// actually coalesced under contention.
func TestBatcherCoalesces(t *testing.T) {
	ont := repro.MustParse(familyProgram)
	// Materialize once so every write pays an incremental chase (the
	// contention window the batcher exists for).
	if _, err := ont.Answer("q(X, Y) :- ancestor(X, Y) ."); err != nil {
		t.Fatal(err)
	}
	b := newBatcher(ont)

	const writers = 32
	var wg sync.WaitGroup
	coalesced := make([]int, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := b.AddFacts(context.Background(), fmt.Sprintf("parent(p%d, q%d) .", i, i))
			if err != nil {
				t.Errorf("writer %d: %v", i, err)
				return
			}
			coalesced[i] = res.coalesced
		}(i)
	}
	wg.Wait()

	ans, err := ont.Answer("q(X, Y) :- parent(X, Y) .")
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + writers; ans.Len() != want {
		t.Fatalf("parent count = %d, want %d", ans.Len(), want)
	}
	max := 0
	for _, c := range coalesced {
		if c > max {
			max = c
		}
	}
	t.Logf("largest coalesced batch: %d requests", max)
}

// TestBatchedEqualsSequential is the ISSUE property test: for random
// interleavings, facts inserted through the coalescing batcher yield an
// ontology answer-equivalent to the same facts inserted sequentially,
// under both sequential and parallel answering.
func TestBatchedEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		batched := repro.MustParse(familyProgram)
		sequential := repro.MustParse(familyProgram)
		if _, err := batched.Answer("q(X, Y) :- ancestor(X, Y) ."); err != nil {
			t.Fatal(err)
		}

		// Random batches of random facts, some overlapping across writers.
		nWriters := 4 + rng.Intn(12)
		batches := make([]string, nWriters)
		for i := range batches {
			var sb strings.Builder
			for j, n := 0, 1+rng.Intn(4); j < n; j++ {
				fmt.Fprintf(&sb, "parent(n%d, n%d) . ", rng.Intn(20), rng.Intn(20))
			}
			batches[i] = sb.String()
		}

		b := newBatcher(batched)
		var wg sync.WaitGroup
		for _, facts := range batches {
			wg.Add(1)
			go func(facts string) {
				defer wg.Done()
				if _, err := b.AddFacts(context.Background(), facts); err != nil {
					t.Errorf("batched add: %v", err)
				}
			}(facts)
		}
		wg.Wait()
		for _, facts := range batches {
			if err := sequential.AddFact(facts); err != nil {
				t.Fatal(err)
			}
		}

		for _, par := range []int{1, 4} {
			opts := repro.Options{Mode: repro.ModeChase, Parallelism: par}
			for _, q := range []string{
				"q(X, Y) :- ancestor(X, Y) .",
				"q(X, Y) :- parent(X, Y) .",
			} {
				got, err := batched.AnswerOptions(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sequential.AnswerOptions(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d par %d %s: batched answers differ from sequential\nbatched: %v\nsequential: %v",
						trial, par, q, got, want)
				}
			}
		}
	}
}

// TestGracefulShutdownDrains verifies that Server.Shutdown waits for an
// in-flight request rather than dropping it.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{})
	s.Add("fam", repro.MustParse(familyProgram))
	httpSrv := httptest.NewServer(s.Handler())

	var buf bytes.Buffer
	buf.WriteString(`{"query": "q(X, Y) :- ancestor(X, Y) ."}`)
	resp, err := http.Post(httpSrv.URL+"/v1/ontologies/fam/query", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	httpSrv.Close() // Close drains active connections like Shutdown does
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request got %d", resp.StatusCode)
	}
}

// parkRequest arms b as if a flush were inside the pipeline, fires AddFacts
// on a goroutine so it parks, and returns the parked request plus the
// channel its outcome will land on.
func parkRequest(t *testing.T, b *batcher, ctx context.Context, facts string) (*writeReq, chan writeResult, chan error) {
	t.Helper()
	b.mu.Lock()
	b.flushing = true
	b.mu.Unlock()
	resc := make(chan writeResult, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := b.AddFacts(ctx, facts)
		resc <- res
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		if len(b.pending) > 0 {
			req := b.pending[0]
			b.mu.Unlock()
			return req, resc, errc
		}
		b.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("request never parked on the pending queue")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherCancelAfterClaimReportsCommit is the commit-vs-timeout race
// regression (white box): a parked request whose batch a flush has already
// claimed must report the flush's outcome, not a fabricated context error —
// the old select returned 504 for facts that verifiably committed.
func TestBatcherCancelAfterClaimReportsCommit(t *testing.T) {
	b := newBatcher(repro.MustParse(familyProgram))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, resc, errc := parkRequest(t, b, ctx, "parent(late, later) .")

	// A flush claims the batch (pending empties), THEN the caller's ctx
	// expires, THEN the commit lands. The caller must wait for the verdict.
	b.mu.Lock()
	b.pending = nil
	b.mu.Unlock()
	cancel()
	// Let the caller reach its ctx.Done branch before the result arrives, so
	// the test fails (not flakes) if the select shortcut comes back.
	time.Sleep(20 * time.Millisecond)
	req.done <- writeResult{added: 1, coalesced: 2}

	res, err := <-resc, <-errc
	if err != nil {
		t.Fatalf("claimed request reported %v; its facts committed", err)
	}
	if res.added != 1 || res.coalesced != 2 {
		t.Fatalf("claimed request got %+v, want the flush result", res)
	}
}

// TestBatcherCancelWithdrawsUnclaimed is the other half of the ticket: a
// request still on the pending queue when its ctx expires is withdrawn under
// the lock, so the context error is truthful — no later flush can commit it.
func TestBatcherCancelWithdrawsUnclaimed(t *testing.T) {
	b := newBatcher(repro.MustParse(familyProgram))
	ctx, cancel := context.WithCancel(context.Background())
	_, resc, errc := parkRequest(t, b, ctx, "parent(never, landed) .")

	cancel()
	res, err := <-resc, <-errc
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("unclaimed canceled request returned (%+v, %v); want context.Canceled", res, err)
	}
	b.mu.Lock()
	n := len(b.pending)
	b.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d withdrawn request(s) still pending; a later flush could commit canceled facts", n)
	}
}

// TestQueryStreamNDJSON exercises the streaming answer path over HTTP: rows
// arrive as NDJSON arrays with a trailing count object, ?limit= caps the
// stream, the streamed rows match the materialized endpoint, and a failure
// before the first row still gets a proper error status.
func TestQueryStreamNDJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Add("fam", repro.MustParse(familyProgram))

	stream := func(url, body, accept string) (int, string, [][]string, map[string]any) {
		t.Helper()
		req, err := http.NewRequest("POST", url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rows [][]string
		var trailer map[string]any
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			if line[0] == '[' {
				var row []string
				if err := json.Unmarshal(line, &row); err != nil {
					t.Fatalf("bad NDJSON row %q: %v", line, err)
				}
				rows = append(rows, row)
				continue
			}
			if trailer != nil {
				t.Fatalf("multiple trailer objects; second: %q", line)
			}
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatalf("bad NDJSON trailer %q: %v", line, err)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), rows, trailer
	}

	// Full stream via the Accept header: all 3 ancestor pairs, then a count.
	st, ct, rows, trailer := stream(ts.URL+"/v1/ontologies/fam/query",
		`{"query": "q(X, Y) :- ancestor(X, Y) ."}`, "application/x-ndjson")
	if st != http.StatusOK || ct != "application/x-ndjson" {
		t.Fatalf("stream: status %d content-type %q", st, ct)
	}
	if len(rows) != 3 || trailer == nil || trailer["count"].(float64) != 3 {
		t.Fatalf("stream: %d rows, trailer %v; want 3 rows and count 3", len(rows), trailer)
	}
	if _, hasErr := trailer["error"]; hasErr {
		t.Fatalf("clean stream carried an error trailer: %v", trailer)
	}
	streamed := map[string]bool{}
	for _, r := range rows {
		streamed[strings.Join(r, ",")] = true
	}

	// The streamed set equals the materialized endpoint's answers.
	body, _ := json.Marshal(map[string]string{"query": "q(X, Y) :- ancestor(X, Y) ."})
	if st, m := doJSON(t, "POST", ts.URL+"/v1/ontologies/fam/query", string(body)); st != http.StatusOK {
		t.Fatalf("materialized query: %d %v", st, m)
	} else {
		for _, row := range m["answers"].([]any) {
			parts := make([]string, 0, 2)
			for _, x := range row.([]any) {
				parts = append(parts, x.(string))
			}
			if !streamed[strings.Join(parts, ",")] {
				t.Fatalf("materialized answer %v missing from stream %v", parts, streamed)
			}
		}
	}

	// ?limit= caps the stream via the body "stream" switch.
	st, _, rows, trailer = stream(ts.URL+"/v1/ontologies/fam/query?limit=2",
		`{"query": "q(X, Y) :- ancestor(X, Y) .", "stream": true}`, "")
	if st != http.StatusOK || len(rows) != 2 || trailer["count"].(float64) != 2 {
		t.Fatalf("limited stream: status %d, %d rows, trailer %v; want 2 rows", st, len(rows), trailer)
	}

	// A failure before the first row keeps a real error status.
	st, _, rows, _ = stream(ts.URL+"/v1/ontologies/fam/query",
		`{"query": "q(X :- broken", "stream": true}`, "")
	if st != http.StatusBadRequest || len(rows) != 0 {
		t.Fatalf("pre-stream failure: status %d with %d rows, want 400 and none", st, len(rows))
	}

	// A bad ?limit= is rejected up front.
	if st, _ := doJSON(t, "POST", ts.URL+"/v1/ontologies/fam/query?limit=banana", string(body)); st != http.StatusBadRequest {
		t.Fatalf("bad limit: status %d, want 400", st)
	}

	// The limit also applies to the materialized (non-streaming) response.
	if st, m := doJSON(t, "POST", ts.URL+"/v1/ontologies/fam/query?limit=1", string(body)); st != http.StatusOK || m["count"].(float64) != 1 {
		t.Fatalf("materialized limited query: %d %v, want count 1", st, m)
	}

	// Stats expose the full-rebuild counter.
	if st, m := doJSON(t, "GET", ts.URL+"/v1/ontologies/fam/stats", ""); st != http.StatusOK {
		t.Fatalf("stats: %d %v", st, m)
	} else if _, ok := m["fullRebuilds"]; !ok {
		t.Fatalf("stats missing fullRebuilds: %v", m)
	}
}

// TestQuerySizesBounded checks that a request body cannot size the worker
// pool: "parallelism" outside 1..repro.MaxParallelism is a 400 before
// anything is built (a hundred million workers' worth of null generators and
// shards used to be allocated under the writer lock), the removed
// "planner"/"join"/"partitions" fields are a 400 naming the field, and the
// tenant keeps answering: the bounds themselves are served.
func TestQuerySizesBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Add("fam", repro.MustParse(familyProgram))
	url := ts.URL + "/v1/ontologies/fam/query"
	for _, tc := range []struct {
		value int
		want  int
	}{
		{2000000000, http.StatusBadRequest},
		{repro.MaxParallelism + 1, http.StatusBadRequest},
		{-1, http.StatusBadRequest},
		{1, http.StatusOK},
		{repro.MaxParallelism, http.StatusOK},
	} {
		body := fmt.Sprintf(`{"query": "q(X) :- ancestor(ada, X) .", "mode": "chase", "parallelism": %d}`, tc.value)
		st, m := doJSON(t, "POST", url, body)
		if st != tc.want {
			t.Errorf("parallelism=%d: status %d, want %d (%v)", tc.value, st, tc.want, m)
		}
		if st == http.StatusOK && int(m["count"].(float64)) != 2 {
			t.Errorf("parallelism=%d: %v answers, want 2", tc.value, m["count"])
		}
	}
	for _, field := range []string{"planner", "join", "partitions"} {
		st, m := doJSON(t, "POST", url, fmt.Sprintf(`{"query": "q(X) :- ancestor(ada, X) .", %q: "hash"}`, field))
		if msg, _ := m["error"].(string); st != http.StatusBadRequest || !strings.Contains(msg, field) {
			t.Errorf("removed field %q: status %d %v, want a 400 naming it", field, st, m)
		}
	}
}

// TestCreateRejectsArityConflicts: a program that uses one predicate with two
// arities, which the chase cannot run, is a 400 naming the predicate, and
// registers nothing.
func TestCreateRejectsArityConflicts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ program, pred string }{
		{`p(X) -> q(X, Y) . q(a) . p(b) .`, "q"},
		{`p(X) -> q(X) . p(a, b) .`, "p"},
	} {
		st, m := doJSON(t, "PUT", ts.URL+"/v1/ontologies/x", tc.program)
		if msg, _ := m["error"].(string); st != http.StatusBadRequest || !strings.Contains(msg, " "+tc.pred+" ") {
			t.Errorf("create %q: status %d %v, want a 400 naming %s", tc.program, st, m, tc.pred)
		}
		if st, _ := doJSON(t, "POST", ts.URL+"/v1/ontologies/x/query", `{"query": "q(X) :- p(X) .", "mode": "chase"}`); st != http.StatusNotFound {
			t.Errorf("after the rejected create %q: query status %d, want 404", tc.program, st)
		}
	}
}

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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
	"repro/internal/parser"
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

// postFacts POSTs facts to url and returns the reply's status and its
// "added" count. It reports failures instead of failing the test, so writer
// goroutines may call it.
func postFacts(url, facts string) (status, added int, err error) {
	body, _ := json.Marshal(map[string]string{"facts": facts})
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var m struct {
		Added int `json:"added"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, 0, err
	}
	return resp.StatusCode, m.Added, nil
}

// TestBatchedEqualsSequential is the concurrent-writer property test: random,
// overlapping batches of facts POSTed to one ontology by concurrent HTTP
// writers yield an ontology answer-equivalent, in chase mode, to a twin fed
// the same batches in order; and the replies' "added"
// counts sum to the number of distinct new facts, since every reply counts
// its own request's facts. A second leg gives some writers ?timeout=1ms on
// disjoint facts: a timeout never hides a committed write, and a committed
// reply never hides a rolled-back one.
func TestBatchedEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		s, ts := newTestServer(t, Config{})
		batched := repro.MustParse(familyProgram)
		sequential := repro.MustParse(familyProgram)
		if _, err := batched.AnswerCtx(context.Background(), "q(X, Y) :- ancestor(X, Y) .", repro.Options{Mode: repro.ModeChase}); err != nil {
			t.Fatal(err)
		}
		s.Add("fam", batched)

		// Random batches of random facts, some overlapping across writers.
		nWriters := 4 + rng.Intn(12)
		batches := make([]string, nWriters)
		distinct := map[[2]int]bool{}
		for i := range batches {
			var sb strings.Builder
			for j, n := 0, 1+rng.Intn(4); j < n; j++ {
				x, y := rng.Intn(20), rng.Intn(20)
				distinct[[2]int{x, y}] = true
				fmt.Fprintf(&sb, "parent(n%d, n%d) . ", x, y)
			}
			batches[i] = sb.String()
		}

		var wg sync.WaitGroup
		added := make([]int, nWriters)
		for i, facts := range batches {
			wg.Add(1)
			go func(i int, facts string) {
				defer wg.Done()
				st, n, err := postFacts(ts.URL+"/v1/ontologies/fam/facts", facts)
				if err != nil || st != http.StatusOK {
					t.Errorf("writer %d: status %d, %v", i, st, err)
				}
				added[i] = n
			}(i, facts)
		}
		wg.Wait()
		for _, facts := range batches {
			if err := sequential.AddFact(facts); err != nil {
				t.Fatal(err)
			}
		}

		sum := 0
		for _, n := range added {
			sum += n
		}
		if sum != len(distinct) {
			t.Fatalf("trial %d: replies added %d facts in all, want the %d distinct new ones", trial, sum, len(distinct))
		}
		opts := repro.Options{Mode: repro.ModeChase}
		for _, q := range []string{
			"q(X, Y) :- ancestor(X, Y) .",
			"q(X, Y) :- parent(X, Y) .",
		} {
			got, err := batched.AnswerCtx(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sequential.AnswerCtx(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d %s: concurrent answers differ from sequential\nconcurrent: %v\nsequential: %v",
					trial, q, got, want)
			}
		}
	}

	t.Run("timeouts", func(t *testing.T) {
		const writers, perWriter = 12, 3
		for trial := 0; trial < 3; trial++ {
			s, ts := newTestServer(t, Config{})
			var chain strings.Builder
			for i := 0; i < 40; i++ {
				fmt.Fprintf(&chain, "parent(c%d, c%d) . ", i, i+1)
			}
			ont := repro.MustParse(familyProgram + chain.String())
			if _, err := ont.AnswerCtx(context.Background(), "q(X, Y) :- ancestor(X, Y) .", repro.Options{Mode: repro.ModeChase}); err != nil {
				t.Fatal(err)
			}
			s.Add("fam", ont)

			// Writer i's facts hang new parents off the chain: disjoint from
			// every other writer's, and each derives dozens of ancestors.
			batches := make([]string, writers)
			for i := range batches {
				var sb strings.Builder
				for j := 0; j < perWriter; j++ {
					fmt.Fprintf(&sb, "parent(w%d_%d, c%d) . ", i, j, rng.Intn(40))
				}
				batches[i] = sb.String()
			}
			status := make([]int, writers)
			added := make([]int, writers)
			var wg sync.WaitGroup
			for i, facts := range batches {
				url := ts.URL + "/v1/ontologies/fam/facts"
				if i%2 == 1 {
					url += "?timeout=1ms"
				}
				wg.Add(1)
				go func(i int, url, facts string) {
					defer wg.Done()
					var err error
					if status[i], added[i], err = postFacts(url, facts); err != nil {
						t.Errorf("writer %d: %v", i, err)
					}
				}(i, url, facts)
			}
			wg.Wait()

			data := ont.Data()
			timedOut := 0
			for i, facts := range batches {
				atoms, err := parser.ParseFacts(facts)
				if err != nil {
					t.Fatal(err)
				}
				switch status[i] {
				case http.StatusOK:
					if added[i] != perWriter {
						t.Errorf("writer %d: 200 reply added %d, want %d", i, added[i], perWriter)
					}
					for _, a := range atoms {
						if !data.ContainsAtom(a) {
							t.Errorf("writer %d: 200 reply, but %v is not in the data", i, a)
						}
					}
				case http.StatusGatewayTimeout, 499:
					timedOut++
					for _, a := range atoms {
						if data.ContainsAtom(a) {
							t.Errorf("writer %d: %d reply, but %v is in the data", i, status[i], a)
						}
					}
				default:
					t.Errorf("writer %d: status %d", i, status[i])
				}
			}
			t.Logf("trial %d: %d of %d writes timed out", trial, timedOut, writers)

			// Whatever the aborts dropped, the published state answers like
			// a scratch chase of its own data.
			scratch := repro.New(ont.Rules(), data.Clone())
			opts := repro.Options{Mode: repro.ModeChase}
			q := "q(X, Y) :- ancestor(X, Y) ."
			got, err := ont.AnswerCtx(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scratch.AnswerCtx(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d: answers after timed-out writes differ from a scratch chase", trial)
			}
		}
	})
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

// TestRemovedQueryFieldsRejected checks that the query-body fields of
// deleted mechanisms — "parallelism" (the parallel chase), "planner",
// "join" and "partitions" — are a 400 naming the field, whatever their
// value, and that the tenant keeps answering.
func TestRemovedQueryFieldsRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Add("fam", repro.MustParse(familyProgram))
	url := ts.URL + "/v1/ontologies/fam/query"
	for _, tc := range []struct{ field, value string }{
		{"parallelism", "1"}, {"parallelism", "4"}, {"parallelism", "-1"},
		{"planner", `"hash"`}, {"join", `"hash"`}, {"partitions", `"hash"`},
	} {
		st, m := doJSON(t, "POST", url, fmt.Sprintf(`{"query": "q(X) :- ancestor(ada, X) .", "mode": "chase", %q: %s}`, tc.field, tc.value))
		if msg, _ := m["error"].(string); st != http.StatusBadRequest || !strings.Contains(msg, tc.field) {
			t.Errorf("removed field %q: %s: status %d %v, want a 400 naming it", tc.field, tc.value, st, m)
		}
	}
	st, m := doJSON(t, "POST", url, `{"query": "q(X) :- ancestor(ada, X) .", "mode": "chase"}`)
	if st != http.StatusOK || int(m["count"].(float64)) != 2 {
		t.Errorf("after the rejected bodies: status %d %v, want 2 answers", st, m)
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

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// TestConcurrentIdenticalStreams fires many concurrent NDJSON requests for
// one query and asserts each streams the complete answer set with a trailer
// counting its rows. Every stream is its own AnswerEach: the ones that miss
// the view evaluate, the rest replay it.
func TestConcurrentIdenticalStreams(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Add("fam", repro.MustParse(familyProgram))
	url := ts.URL + "/v1/ontologies/fam/query"
	body := map[string]any{"query": "q(X, Y) :- ancestor(X, Y) .", "stream": true}
	want := []string{"[ada bob]", "[ada cyd]", "[bob cyd]"}

	const clients = 8
	var wg sync.WaitGroup
	results := make([][]string, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c], errs[c] = fetchAnswers(url, body)
		}()
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		if got := slices.Sorted(slices.Values(results[c])); !slices.Equal(got, want) {
			t.Fatalf("client %d streamed %v, want %v", c, got, want)
		}
	}
}

// TestStreamLimitAndNoCache asserts a limited stream is a prefix-sized
// subset of the answers and noCache opts out of the answer-view cache
// entirely.
func TestStreamLimitAndNoCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Add("fam", repro.MustParse(familyProgram))
	url := ts.URL + "/v1/ontologies/fam/query"
	const q = "q(X, Y) :- ancestor(X, Y) ."

	full, err := fetchAnswers(url, map[string]any{"query": q, "stream": true})
	if err != nil || len(full) != 3 {
		t.Fatalf("full stream: %d rows, err %v", len(full), err)
	}
	limited, err := fetchAnswers(url, map[string]any{"query": q, "stream": true, "limit": 2})
	if err != nil || len(limited) != 2 {
		t.Fatalf("limited stream: %d rows, err %v", len(limited), err)
	}
	for _, r := range limited {
		if !slices.Contains(full, r) {
			t.Fatalf("limited stream row %q is not an answer", r)
		}
	}

	before := s.Ontology("fam").AnswerCacheStats()
	rows, err := fetchAnswers(url, map[string]any{"query": q, "stream": true, "noCache": true})
	if err != nil || len(rows) != 3 {
		t.Fatalf("noCache stream: %d rows, err %v", len(rows), err)
	}
	if after := s.Ontology("fam").AnswerCacheStats(); after != before {
		t.Errorf("noCache stream touched the cache: %+v -> %+v", before, after)
	}
}

// TestStatsExposeCacheCounters warms the tenant's answer cache through the
// query endpoint and reads the counters back from /stats.
func TestStatsExposeCacheCounters(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Add("fam", repro.MustParse(familyProgram))
	base := ts.URL + "/v1/ontologies/fam"

	body, _ := json.Marshal(map[string]string{"query": "q(X, Y) :- ancestor(X, Y) ."})
	for i := 0; i < 2; i++ { // miss, then hit
		if st, m := doJSON(t, "POST", base+"/query", string(body)); st != http.StatusOK {
			t.Fatalf("query %d: %d %v", i, st, m)
		}
	}
	st, m := doJSON(t, "GET", base+"/stats", "")
	if st != http.StatusOK {
		t.Fatalf("stats: %d %v", st, m)
	}
	ac, ok := m["answerCache"].(map[string]any)
	if !ok {
		t.Fatalf("stats carry no answerCache object: %v", m)
	}
	if ac["Hits"].(float64) < 1 || ac["Misses"].(float64) < 1 || ac["Entries"].(float64) < 1 {
		t.Errorf("answerCache=%v, want at least one hit, miss and entry", ac)
	}
	if _, ok := m["shedRequests"]; !ok {
		t.Errorf("stats carry no shedRequests counter: %v", m)
	}
}

// TestAdmissionControlSheds saturates a MaxConcurrent=1, MaxQueue=1 server
// with slow streams and asserts overload answers arrive as 429 with a
// Retry-After hint, while /healthz stays reachable and the server recovers
// once the load drains.
func TestAdmissionControlSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	// A program wide enough that one streaming request holds its slot while
	// the others pile up behind it.
	var b strings.Builder
	b.WriteString("parent(X, Y) -> ancestor(X, Y) .\nparent(X, Y), ancestor(Y, Z) -> ancestor(X, Z) .\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "parent(p%d, p%d) .\n", i, i+1)
	}
	s.Add("deep", repro.MustParse(b.String()))
	url := ts.URL + "/v1/ontologies/deep/query"
	body, _ := json.Marshal(map[string]any{"query": "q(X, Y) :- ancestor(X, Y) .", "noCache": true})

	const clients = 8
	var wg sync.WaitGroup
	codes := make([]int, clients)
	retryAfter := make([]string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[c] = resp.StatusCode
			retryAfter[c] = resp.Header.Get("Retry-After")
		}(c)
	}
	wg.Wait()

	okCount, shedCount := 0, 0
	for c := 0; c < clients; c++ {
		switch codes[c] {
		case http.StatusOK:
			okCount++
		case http.StatusTooManyRequests:
			shedCount++
			if retryAfter[c] == "" {
				t.Errorf("client %d: 429 without Retry-After", c)
			}
		default:
			t.Errorf("client %d: unexpected status %d", c, codes[c])
		}
	}
	// One slot plus one queue position: at least 2 can succeed, at least
	// clients-2... some shedding must have happened with 8 arrivals racing.
	if okCount == 0 {
		t.Error("no request got through a saturated server")
	}
	if shedCount == 0 {
		t.Error("no request was shed at MaxConcurrent=1 MaxQueue=1 under 8 concurrent arrivals")
	}
	if got := s.shed.Load(); got != uint64(shedCount) {
		t.Errorf("shed counter %d, observed %d shed responses", got, shedCount)
	}

	// Health checks bypass admission even while saturated; afterwards the
	// semaphore has fully drained and normal requests flow again.
	if st, m := doJSON(t, "GET", ts.URL+"/healthz", ""); st != http.StatusOK {
		t.Fatalf("healthz: %d %v", st, m)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := doJSON(t, "POST", url, string(body))
		if st == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not recover after the burst drained")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro"
)

// FuzzQueryBody posts arbitrary bytes as the body of POST .../query against
// a tiny tenant. Whatever arrives, the handler must not panic, must answer
// with a client error or a real result (the only 5xx allowed is the 504 of an
// expired deadline), and must leave the tenant's published answers as they
// were.
func FuzzQueryBody(f *testing.F) {
	for _, seed := range []string{
		`{"query": "q(X) :- ancestor(ada, X) ."}`,
		`{"query": "q(X) :- ancestor(ada, X) .", "mode": "chase", "partitions": 4, "parallelism": 2}`,
		`{"query": "q(X,Y) :- parent(X,Y) .", "mode": "rewrite", "limit": 1, "stream": true}`,
		`{"query": "q(X) :- ancestor(ada, X) .", "noCache": true, "maxSteps": 1, "maxRounds": 1}`,
		// Fields removed with the strategy options: unknown, so a 400.
		`{"query": "q(X) :- ancestor(ada, X) .", "planner": "greedy"}`,
		`{"query": "q(X) :- ancestor(ada, X) .", "join": "hash"}`,
		// Sizes from outside the program, out of range.
		`{"query": "q(X) :- ancestor(ada, X) .", "parallelism": 100000000}`,
		`{"query": "q(X) :- ancestor(ada, X) .", "parallelism": -1}`,
		`{"query": "q(X) :- ancestor(ada, X) .", "mode": "chase", "partitions": 2000000000}`,
		`{"query": "q(X) :- ancestor(ada, X) .", "partitions": -7}`,
		`{"query": "q(X) :- ancestor(ada, X) .", "limit": -1}`,
		`{"query": "q(X) :- ancestor(ada, X) .", "limit": 9223372036854775807}`,
		`{"query": "q(X) :- ancestor(ada, X) .", "limit": 1e99}`,
		`{"query": "q(X) :- nosuch(X) ."}`,
		`{"query": "q(X) :- ancestor(ada, X)"}`,
		`{"query": 7}`,
		`{"mode": "sideways"}`,
		`[1, 2, 3]`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{DefaultTimeout: 2 * time.Second})
	ont := repro.MustParse(familyProgram)
	s.Add("fam", ont)
	h := s.Handler()
	const probe = `q(X) :- ancestor(ada, X) .`
	want, err := ont.AnswerOptions(probe, repro.Options{NoCache: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/ontologies/fam/query", bytes.NewReader(body)))
		if rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
		for _, mode := range []repro.AnswerMode{repro.ModeAuto, repro.ModeChase} {
			got, err := ont.AnswerOptions(probe, repro.Options{Mode: mode})
			if err != nil || !got.Equal(want) {
				t.Fatalf("after body %q: mode %v answers %v (err %v), want %v", body, mode, got, err, want)
			}
		}
	})
}

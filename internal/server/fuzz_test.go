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
		`{"query": "q(X) :- ancestor(ada, X) .", "mode": "chase", "parallelism": 2}`,
		`{"query": "q(X,Y) :- parent(X,Y) .", "mode": "rewrite", "limit": 1, "stream": true}`,
		`{"query": "q(X) :- ancestor(ada, X) .", "noCache": true, "maxSteps": 1, "maxRounds": 1}`,
		// Removed fields (the strategy options and partitioning): unknown,
		// so a 400.
		`{"query": "q(X) :- ancestor(ada, X) .", "planner": "greedy"}`,
		`{"query": "q(X) :- ancestor(ada, X) .", "join": "hash"}`,
		`{"query": "q(X) :- ancestor(ada, X) .", "mode": "chase", "partitions": 2000000000}`,
		`{"query": "q(X) :- ancestor(ada, X) .", "partitions": -7}`,
		// Sizes from outside the program, out of range.
		`{"query": "q(X) :- ancestor(ada, X) .", "parallelism": 100000000}`,
		`{"query": "q(X) :- ancestor(ada, X) .", "parallelism": -1}`,
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

// mutationPaths are the write endpoints FuzzMutationBody drives, picked by
// the first input byte.
var mutationPaths = []struct{ method, path string }{
	{"POST", "/v1/ontologies/fam/facts"},
	{"DELETE", "/v1/ontologies/fam/facts"},
	{"POST", "/v1/ontologies/fam/rules"},
}

// FuzzMutationBody posts arbitrary bytes as the body of a fact insertion, a
// fact deletion or a rule insertion against a fresh tiny tenant whose chase
// materialization is published. Whatever arrives, the handler must not
// panic and must answer with a client error or a success (the only 5xx
// allowed is the 504 of an expired deadline); a rejected body must leave the
// tenant's answers, in auto and in chase mode, as they were before it.
func FuzzMutationBody(f *testing.F) {
	for _, seed := range []struct {
		path byte
		body string
	}{
		{0, `{"facts": "parent(cyd, dee) ."}`},
		{0, `{"facts": "parent(cyd, dee) . parent(dee, eve) ."}`},
		{0, `{"facts": "parent(ada, bob) ."}`}, // duplicate
		{0, `{"facts": "parent(ada) ."}`},      // arity clash
		{0, `{"facts": "parent(X, bob) ."}`},   // not ground
		{0, `{"facts": "parent(ada, bob)"}`},   // no terminator
		{0, `{"facts": "parent(cyd, dee) .", "partitions": 4}`},
		{1, `{"facts": "parent(bob, cyd) ."}`},
		{1, `{"facts": "parent(nobody, none) ."}`},  // absent
		{1, `{"facts": "ancestor(ada, cyd) ."}`},    // derived, not base
		{1, `{"facts": "parent(ada, bob, cyd) ."}`}, // arity clash
		{2, `{"rule": "ancestor(X, Y) -> related(X, Y) ."}`},
		{2, `{"rule": "parent(X, Y) -> hasChild(X, Z) ."}`},
		{2, `{"rule": "parent(X) -> person(X) ."}`},       // arity clash
		{2, `{"rule": "parent(X, Y) -> ancestor(Y) ."}`},  // head arity clash
		{2, `{"rule": "parent(X, Y) -> ."}`},              // malformed
		{2, `{"rule": "p(X) -> q(X) . q(X) -> p(X) ."}`},  // two rules
		{2, `{"rule": "parent(X, Y) -> q(X) .", "x": 1}`}, // unknown field
		{0, ``},
		{1, `{`},
		{2, `[1, 2, 3]`},
		{0, `not json`},
		{1, `{"facts": 7}`},
	} {
		f.Add(append([]byte{seed.path}, seed.body...))
	}
	s := New(Config{DefaultTimeout: 2 * time.Second})
	h := s.Handler()
	const probe = `q(X) :- ancestor(ada, X) .`
	want, err := repro.MustParse(familyProgram).AnswerOptions(probe, repro.Options{NoCache: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		ont := repro.MustParse(familyProgram)
		if _, err := ont.AnswerOptions(probe, repro.Options{Mode: repro.ModeChase}); err != nil {
			t.Fatal(err)
		}
		s.Add("fam", ont)
		p := mutationPaths[int(in[0])%len(mutationPaths)]
		body := in[1:]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(p.method, p.path, bytes.NewReader(body)))
		if rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s %s body %q: status %d: %s", p.method, p.path, body, rec.Code, rec.Body)
		}
		if rec.Code < 400 {
			return // accepted: the tenant may legitimately answer differently
		}
		for _, mode := range []repro.AnswerMode{repro.ModeAuto, repro.ModeChase} {
			got, err := ont.AnswerOptions(probe, repro.Options{Mode: mode})
			if err != nil || !got.Equal(want) {
				t.Fatalf("after rejected %s %s body %q: mode %v answers %v (err %v), want %v",
					p.method, p.path, body, mode, got, err, want)
			}
		}
	})
}

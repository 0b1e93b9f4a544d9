package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
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

// ontologyRequests are the requests FuzzOntologyBody drives, picked by the
// first input byte: a create whose body is the rest of the input, a rule
// removal whose label is the rest, and a CSV load whose first line names the
// predicate and whose remaining lines are the records.
const (
	fuzzCreate = iota
	fuzzRemoveRule
	fuzzLoadCSV
	fuzzRequests
)

// FuzzOntologyBody drives the endpoints that take a whole program, a rule
// label or CSV records: PUT /v1/ontologies/{name}, DELETE .../rules/{label}
// and POST .../csv/{pred}, against a fresh tiny tenant whose chase
// materialization is published. Whatever arrives, the handler must not
// panic and must answer with a client error or a success (the only 5xx
// allowed is the 504 of an expired deadline). An accepted create must answer
// a query over each of its predicates in auto and chase mode without
// panicking; a rejected request must leave the probe tenant's answers, in
// both modes, as they were.
func FuzzOntologyBody(f *testing.F) {
	for _, seed := range []struct {
		request byte
		rest    string
	}{
		{fuzzCreate, familyProgram},
		{fuzzCreate, `p(X) -> q(X, Y) . p(a) .`},
		{fuzzCreate, `p(X) -> q(X) . q(X) -> p(X) . p(a) .`},
		{fuzzCreate, `p(X) -> q(X, Y) . q(a) . p(b) .`},  // fact against a rule head
		{fuzzCreate, `p(X) -> q(X) . p(a, b) .`},         // fact against a rule body
		{fuzzCreate, `p(X) -> q(X) . p(X, Y) -> r(X) .`}, // rule against rule
		{fuzzCreate, `p(a) . p(a, b) .`},                 // fact against fact
		{fuzzCreate, `p(X) -> q(X) . ans(X) :- q(X) .`},  // query clause
		{fuzzCreate, `p(X ->`},
		{fuzzCreate, ``},
		{fuzzRemoveRule, "R1"},
		{fuzzRemoveRule, "R2"},
		{fuzzRemoveRule, "R3"}, // unknown label
		{fuzzRemoveRule, "no such rule"},
		{fuzzRemoveRule, "R1/x"},
		{fuzzLoadCSV, "parent\ncyd,dee\ndee,eve\n"},
		{fuzzLoadCSV, "parent\nada,bob\n"},       // duplicate
		{fuzzLoadCSV, "parent\ncyd\n"},           // arity clash with the data
		{fuzzLoadCSV, "ancestor\ncyd,dee,eve\n"}, // arity clash with the rules
		{fuzzLoadCSV, "person\nada\nbob\n"},      // a new predicate
		{fuzzLoadCSV, "parent\na,b\nc\n"},        // ragged
		{fuzzLoadCSV, "parent\n\"unterminated\n"},
		{fuzzLoadCSV, "parent"},
	} {
		f.Add(append([]byte{seed.request}, seed.rest...))
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
		rest := string(in[1:])
		var req *http.Request
		switch in[0] % fuzzRequests {
		case fuzzCreate:
			req = httptest.NewRequest("PUT", "/v1/ontologies/created", strings.NewReader(rest))
		case fuzzRemoveRule:
			req = httptest.NewRequest("DELETE", "/v1/ontologies/fam/rules/"+url.PathEscape(rest), nil)
		default:
			pred, records, _ := strings.Cut(rest, "\n")
			req = httptest.NewRequest("POST", "/v1/ontologies/fam/csv/"+url.PathEscape(pred), strings.NewReader(records))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s %s body %q: status %d: %s", req.Method, req.URL, rest, rec.Code, rec.Body)
		}
		if in[0]%fuzzRequests == fuzzCreate && rec.Code < 400 {
			queryEveryPredicate(t, s.Ontology("created"))
		}
		if rec.Code < 400 {
			return // accepted: the tenant may legitimately answer differently
		}
		for _, mode := range []repro.AnswerMode{repro.ModeAuto, repro.ModeChase} {
			got, err := ont.AnswerOptions(probe, repro.Options{Mode: mode})
			if err != nil || !got.Equal(want) {
				t.Fatalf("after rejected %s %s body %q: mode %v answers %v (err %v), want %v",
					req.Method, req.URL, rest, mode, got, err, want)
			}
		}
	})
}

// queryEveryPredicate asks q(X1..Xk) :- p(X1..Xk) for each predicate of the
// ontology's rules and data, in auto and chase mode, under small budgets: an
// answer or an error is fine, a panic fails the fuzz target.
func queryEveryPredicate(t *testing.T, ont *repro.Ontology) {
	sig, err := ont.Rules().Predicates()
	if err != nil {
		t.Fatalf("an accepted ontology has an inconsistent signature: %v", err)
	}
	for _, pred := range ont.Data().Predicates() {
		sig[pred] = ont.Data().Relation(pred).Arity()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	opts := repro.Options{MaxSteps: 2000, MaxRounds: 50, MaxRewriteCQs: 200}
	for pred, arity := range sig {
		vars := make([]string, arity)
		for i := range vars {
			vars[i] = fmt.Sprintf("X%d", i)
		}
		args := strings.Join(vars, ", ")
		q := fmt.Sprintf("ans(%s) :- %s(%s) .", args, pred, args)
		for _, mode := range []repro.AnswerMode{repro.ModeAuto, repro.ModeChase} {
			opts.Mode = mode
			_, _ = ont.AnswerCtx(ctx, q, opts)
		}
	}
}

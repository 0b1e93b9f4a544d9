package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/datagen"
	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/naive"
	"repro/internal/query"
)

// fetchAnswers runs one POST .../query and returns its rows in the oracle's
// rendering (naive.Render), in response order. It checks what the wire
// format promises — a 200, a count equal to the rows sent, and for NDJSON a
// trailer without an error — and reports any breach as an error, so it is
// safe to call from any goroutine.
func fetchAnswers(url string, body map[string]any) ([]string, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	render := func(row []string) string { return "[" + strings.Join(row, " ") + "]" }
	if body["stream"] != true {
		var out struct {
			Count   int        `json:"count"`
			Answers [][]string `json:"answers"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, err
		}
		if out.Count != len(out.Answers) {
			return nil, fmt.Errorf("count %d over %d answers", out.Count, len(out.Answers))
		}
		rows := make([]string, len(out.Answers))
		for i, row := range out.Answers {
			rows[i] = render(row)
		}
		return rows, nil
	}
	var rows []string
	var trailer map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		switch {
		case len(line) == 0:
		case trailer != nil:
			return nil, fmt.Errorf("line %q after the trailer", line)
		case line[0] == '[':
			var row []string
			if err := json.Unmarshal(line, &row); err != nil {
				return nil, fmt.Errorf("bad NDJSON row %q: %v", line, err)
			}
			rows = append(rows, render(row))
		default:
			if err := json.Unmarshal(line, &trailer); err != nil {
				return nil, fmt.Errorf("bad NDJSON trailer %q: %v", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	switch {
	case trailer == nil:
		return nil, fmt.Errorf("stream of %d rows ended without a trailer", len(rows))
	case trailer["error"] != nil:
		return nil, fmt.Errorf("stream failed: %v", trailer["error"])
	case trailer["count"] != float64(len(rows)):
		return nil, fmt.Errorf("trailer %v over %d rows", trailer, len(rows))
	}
	return rows, nil
}

// TestHTTPMutationScriptsDifferential drives seeded AddFact/DeleteFact
// scripts through the HTTP surface, with the answer-view cache on, while
// readers keep querying it. Each read is a burst of concurrent requests for
// one query: several identical NDJSON streams, a limited NDJSON stream, and
// a JSON request with and without a limit. Snapshot isolation at the wire:
// every response equals the naive oracle's answers on one committed prefix
// of the script that was current during its burst — a limited one is that
// many of those answers — and every NDJSON trailer counts the rows sent.
// `make test` runs it under -race. The P=1 in the subtest names dates from
// the hash-partitioned store: it names the one store.
func TestHTTPMutationScriptsDifferential(t *testing.T) {
	for _, fam := range []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain, datagen.FamilySticky} {
		for seed := int64(2); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d/P=1", fam, seed), func(t *testing.T) {
				runHTTPScript(t, fam, seed)
			})
		}
	}
}

func runHTTPScript(t *testing.T, fam datagen.Family, seed int64) {
	rules := datagen.Rules(datagen.Config{Family: fam, Rules: 5, Seed: seed})
	atoms := datagen.Instance(rules, 20, 8, seed).Atoms()
	rng := rand.New(rand.NewSource(seed * 7919))
	rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })
	cut := 2 * len(atoms) / 3
	live, reserve := slices.Clone(atoms[:cut]), atoms[cut:]

	ont, err := repro.Parse(rules.String() + "\n" + factText(live))
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Answer: repro.Options{MaxSteps: 20000}})
	s.Add("o", ont)
	base := ts.URL + "/v1/ontologies/o"
	queries := atomicQueryTexts(t, rules)
	if _, err := fetchAnswers(base+"/query", map[string]any{"query": queries[0], "mode": "chase"}); err != nil {
		t.Skipf("initial chase: %v", err)
	}

	// prefixes[i] is the base data after i committed mutations.
	var prefixes [][]logic.Atom
	var committed atomic.Int64
	commit := func() {
		prefixes = append(prefixes, slices.Clone(live))
		committed.Store(int64(len(prefixes) - 1))
	}
	commit()

	type observation struct {
		q      string
		limit  int
		lo, hi int
		rows   []string
		err    error
	}
	var (
		mu      sync.Mutex
		seen    []observation
		started atomic.Int64
		stop    = make(chan struct{})
		readers sync.WaitGroup
	)
	// Stops the readers on every exit, a failed mutation step's included.
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		readers.Wait()
	})
	defer stopReaders()
	for r := int64(0); r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rrng := rand.New(rand.NewSource(seed*31 + r))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[rrng.Intn(len(queries))]
				mode := []string{"auto", "chase"}[rrng.Intn(2)]
				k := 1 + rrng.Intn(3)
				burst := []map[string]any{
					{"query": q, "mode": mode, "stream": true},
					{"query": q, "mode": mode, "stream": true},
					{"query": q, "mode": mode, "stream": true},
					{"query": q, "mode": mode, "stream": true, "limit": k},
					{"query": q, "mode": mode},
					{"query": q, "mode": mode, "limit": k},
				}
				lo := int(committed.Load())
				started.Add(1)
				obs := make([]observation, len(burst))
				var wg sync.WaitGroup
				for i, body := range burst {
					wg.Add(1)
					go func() {
						defer wg.Done()
						limit, _ := body["limit"].(int)
						rows, err := fetchAnswers(base+"/query", body)
						obs[i] = observation{q: q, limit: limit, lo: lo, rows: rows, err: err}
					}()
				}
				wg.Wait()
				// A mutation publishes before the script counts it.
				hi := int(committed.Load()) + 1
				mu.Lock()
				for _, ob := range obs {
					ob.hi = hi
					seen = append(seen, ob)
				}
				mu.Unlock()
			}
		}()
	}

	for step := 0; step < 16; step++ {
		// Each mutation lands beside a burst in flight.
		for n := started.Load(); started.Load() == n; {
			runtime.Gosched()
		}
		if rng.Intn(2) == 0 && len(reserve) > 0 {
			batch := reserve[:min(1+rng.Intn(3), len(reserve))]
			st, m := doJSON(t, "POST", base+"/facts", mustJSON(t, map[string]string{"facts": factText(batch)}))
			if st != http.StatusOK || m["added"] != float64(len(batch)) {
				t.Fatalf("step %d: add %d facts: %d %v", step, len(batch), st, m)
			}
			live, reserve = append(live, batch...), reserve[len(batch):]
		} else {
			var victims []logic.Atom
			for n := min(1+rng.Intn(3), len(live)-1); n > 0; n-- {
				i := rng.Intn(len(live))
				victims = append(victims, live[i])
				live = slices.Delete(live, i, i+1)
			}
			st, m := doJSON(t, "DELETE", base+"/facts", mustJSON(t, map[string]string{"facts": factText(victims)}))
			if st != http.StatusOK || m["removed"] != float64(len(victims)) {
				t.Fatalf("step %d: delete %d facts: %d %v", step, len(victims), st, m)
			}
		}
		commit()
	}
	stopReaders()

	refs := make([][]logic.Atom, len(prefixes))
	for i, facts := range prefixes {
		var ok bool
		if refs[i], ok = naive.Chase(rules, facts, false, 20000); !ok {
			t.Skipf("reference chase of prefix %d over budget", i)
		}
	}
	oracle := func(i int, q string) []string {
		cq, err := repro.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		return naive.Answers(query.MustNewUCQ(cq), refs[i])
	}
	for _, ob := range seen {
		if ob.err != nil {
			t.Fatalf("%s (limit %d) between prefixes %d and %d: %v", ob.q, ob.limit, ob.lo, ob.hi, ob.err)
		}
		match := false
		for i := ob.lo; i <= min(ob.hi, len(refs)-1) && !match; i++ {
			match = answersOf(ob.rows, oracle(i, ob.q), ob.limit)
		}
		if !match {
			t.Fatalf("%s (limit %d) between prefixes %d and %d matches none of them:\nread:   %v\noracle: %v",
				ob.q, ob.limit, ob.lo, ob.hi, ob.rows, oracle(ob.lo, ob.q))
		}
	}
	t.Logf("%d responses beside %d committed mutations", len(seen), len(prefixes)-1)
}

// answersOf reports whether rows are the oracle's answers want: all of them
// when limit is 0, otherwise min(limit, len(want)) distinct ones.
func answersOf(rows, want []string, limit int) bool {
	got := slices.Sorted(slices.Values(rows))
	if limit == 0 || limit >= len(want) {
		return slices.Equal(got, want)
	}
	if len(got) != limit || len(slices.Compact(got)) != limit {
		return false
	}
	for _, r := range got {
		if _, ok := slices.BinarySearch(want, r); !ok {
			return false
		}
	}
	return true
}

// factText renders ground atoms as fact clauses.
func factText(atoms []logic.Atom) string {
	var b strings.Builder
	for _, a := range atoms {
		b.WriteString(a.String())
		b.WriteString(" .\n")
	}
	return b.String()
}

// atomicQueryTexts returns one atomic query per predicate of the rule set,
// in a fixed order.
func atomicQueryTexts(t *testing.T, rules *dependency.Set) []string {
	t.Helper()
	preds, err := rules.Predicates()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for p, arity := range preds {
		vars := make([]string, arity)
		for i := range vars {
			vars[i] = fmt.Sprintf("X%d", i+1)
		}
		out = append(out, fmt.Sprintf("q(%s) :- %s(%s) .", strings.Join(vars, ", "), p, strings.Join(vars, ", ")))
	}
	sort.Strings(out)
	return out
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

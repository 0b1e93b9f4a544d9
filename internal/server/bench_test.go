package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/datagen"
)

// BenchmarkServing measures the HTTP serving layer under a mixed workload:
// each iteration fires a fixed burst of requests from concurrent clients
// against a hot ontology — reads are lockless snapshot queries, each write is
// one mutation under the ontology's writer lock — and reports the per-request latency
// percentiles (p50-ns / p99-ns) alongside the usual ns/op for the burst.
// The burst size is fixed so the percentiles are meaningful even under
// -benchtime 1x (the CI smoke configuration).
func BenchmarkServing(b *testing.B) {
	mixes := []struct {
		name       string
		writePct   int
		cacheBytes int64 // Config.AnswerCacheBytes: negative disables
	}{
		// The repeated-query read mix is where the answer cache pays: every
		// request after the first is a view hit. The uncached variant pins
		// the no-cache baseline for comparison.
		{"read", 0, 0},
		{"read-uncached", 0, -1},
		{"mixed-10pct-write", 10, 0},
	}
	var uniq atomic.Int64 // unique fact names across all runs
	for _, mix := range mixes {
		b.Run(mix.name, func(b *testing.B) {
			s := New(Config{AnswerCacheBytes: mix.cacheBytes})
			ont := repro.New(datagen.University(), datagen.UniversityData(8, 1))
			s.Add("uni", ont)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			client := ts.Client()
			queryBody := `{"query": "q(X) :- person(X) .", "mode": "chase"}`
			queryURL := ts.URL + "/v1/ontologies/uni/query"
			factsURL := ts.URL + "/v1/ontologies/uni/facts"

			// Warm the materialization and the plan cache so the benchmark
			// measures steady-state serving, not the cold build.
			if resp, err := client.Post(queryURL, "application/json", strings.NewReader(queryBody)); err != nil {
				b.Fatal(err)
			} else {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("warmup query: %d", resp.StatusCode)
				}
			}

			const burst = 256
			const workers = 8
			latencies := make([]time.Duration, 0, burst*b.N)
			var mu sync.Mutex

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var next atomic.Int64
				var wg sync.WaitGroup
				burstLat := make([]time.Duration, burst)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							k := int(next.Add(1)) - 1
							if k >= burst {
								return
							}
							var resp *http.Response
							var err error
							start := time.Now()
							if mix.writePct > 0 && k%100 < mix.writePct {
								body := fmt.Sprintf(`{"facts": "graduateStudent(bench%d) ."}`, uniq.Add(1))
								resp, err = client.Post(factsURL, "application/json", strings.NewReader(body))
							} else {
								resp, err = client.Post(queryURL, "application/json", strings.NewReader(queryBody))
							}
							burstLat[k] = time.Since(start)
							if err != nil {
								b.Error(err)
								return
							}
							resp.Body.Close()
							if resp.StatusCode != http.StatusOK {
								b.Errorf("status %d", resp.StatusCode)
								return
							}
						}
					}()
				}
				wg.Wait()
				mu.Lock()
				latencies = append(latencies, burstLat...)
				mu.Unlock()
			}
			b.StopTimer()

			sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
			pct := func(p float64) float64 {
				idx := int(p * float64(len(latencies)-1))
				return float64(latencies[idx].Nanoseconds())
			}
			b.ReportMetric(pct(0.50), "p50-ns")
			b.ReportMetric(pct(0.99), "p99-ns")
			b.ReportMetric(float64(burst), "req/op")
		})
	}
}

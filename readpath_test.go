package repro

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/naive"
)

// pushAnswers and pullAnswers drain AnswerEach and AnswerStream into the
// rendered rows, in stream order.
func pushAnswers(ont *Ontology, q string, opts Options) ([]string, error) {
	var out []string
	err := ont.AnswerEach(context.Background(), q, opts, func(a Answer) bool {
		out = append(out, naive.Render(a))
		return true
	})
	return out, err
}

func pullAnswers(ont *Ontology, q string, opts Options) ([]string, error) {
	s, err := ont.AnswerStream(context.Background(), q, opts)
	if err != nil {
		return nil, err
	}
	var out []string
	for {
		a, ok, err := s.Next(context.Background())
		if err != nil || !ok {
			return out, err
		}
		out = append(out, naive.Render(a))
	}
}

// TestStreamingAnswersNoticeCancellation is the public-API half of the
// dense-stream cancellation regression (see eval.TestStreamNoticesCancellation):
// both streaming surfaces must fail within two poll intervals of a cancel
// that lands mid-stream, instead of delivering all 20 000 rows.
func TestStreamingAnswersNoticeCancellation(t *testing.T) {
	const facts, pollInterval = 20000, 4096
	var src strings.Builder
	for i := 0; i < facts; i++ {
		fmt.Fprintf(&src, "p(c%d) .\n", i)
	}
	ont := MustParse(src.String())
	const q = `q(X) :- p(X) .`

	t.Run("AnswerEach", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rows := 0
		err := ont.AnswerEach(ctx, q, Options{}, func(Answer) bool {
			if rows++; rows == 10 {
				cancel()
			}
			return true
		})
		if !errors.Is(err, context.Canceled) || rows > 10+2*pollInterval {
			t.Fatalf("err = %v after %d rows, want context.Canceled within %d rows of the cancel", err, rows, 2*pollInterval)
		}
	})
	t.Run("AnswerStream", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s, err := ont.AnswerStream(ctx, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for err == nil && rows <= 10+2*pollInterval {
			var ok bool
			if _, ok, err = s.Next(ctx); !ok {
				break
			}
			if rows++; rows == 10 {
				cancel()
			}
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v after %d rows, want context.Canceled within %d rows of the cancel", err, rows, 2*pollInterval)
		}
	})
}

// TestAnswerEachJoinsCache pins what the shared open gives the push
// surface: a completed AnswerEach fills the answer-view cache and the next
// one hits it; a Limit replays exactly the first k tuples of the unlimited
// stream; NoCache neither reads nor fills; an early stop stores no view.
func TestAnswerEachJoinsCache(t *testing.T) {
	const q = `q(X) :- person(X) .`
	for _, mode := range []AnswerMode{ModeAuto, ModeChase} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			ont := cachedOnt(t, universityMini)
			opts := Options{Mode: mode}

			if _, err := pushAnswers(ont, q, Options{Mode: mode, NoCache: true}); err != nil {
				t.Fatal(err)
			}
			if st := ont.AnswerCacheStats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
				t.Fatalf("NoCache touched the cache: %+v", st)
			}

			stops := 0
			if err := ont.AnswerEach(context.Background(), q, opts, func(Answer) bool { stops++; return false }); err != nil {
				t.Fatal(err)
			}
			if st := ont.AnswerCacheStats(); stops != 1 || st.Entries != 0 {
				t.Fatalf("a stream stopped after %d rows stored a view: %+v", stops, st)
			}

			full, err := pushAnswers(ont, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st := ont.AnswerCacheStats(); st.Entries != 1 || st.Hits != 0 {
				t.Fatalf("a completed AnswerEach did not fill the cache: %+v", st)
			}
			again, err := pushAnswers(ont, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st := ont.AnswerCacheStats(); st.Hits != 1 {
				t.Fatalf("the second AnswerEach did not hit the view: %+v", st)
			}
			if !slices.Equal(again, full) {
				t.Fatalf("replayed stream differs from the evaluated one:\n%v\nvs\n%v", again, full)
			}
			const k = 2
			limited, err := pushAnswers(ont, q, Options{Mode: mode, Limit: k})
			if err != nil {
				t.Fatal(err)
			}
			if st := ont.AnswerCacheStats(); st.Hits != 2 || !slices.Equal(limited, full[:k]) {
				t.Fatalf("Limit %d over the view = %v (stats %+v), want the prefix %v", k, limited, st, full[:k])
			}
		})
	}
}

// TestReadPathDifferential compares the three consumers of the one read
// path — AnswerCtx (collect), AnswerEach (push), AnswerStream (pull) — with
// each other and with the naive oracle, across answering mode, cache state
// (bypassed, cold, warm), Limit, partition count and parallelism. Unlimited,
// every surface returns the oracle's set; limited, every surface returns the
// same rows, the prefix of the unlimited stream in the same cache state.
func TestReadPathDifferential(t *testing.T) {
	inputs := map[string]func(t *testing.T) *Ontology{}
	for seed := int64(1); seed <= 3; seed++ {
		for _, fam := range []datagen.Family{datagen.FamilyLinear, datagen.FamilyChain, datagen.FamilySticky} {
			inputs[fmt.Sprintf("%v/seed=%d", fam, seed)] = func(t *testing.T) *Ontology {
				return ontologyFromDatagen(t, fam, 5, seed)
			}
		}
		src := datagen.University().String() + "\n" + datagen.UniversityData(2, seed).String()
		inputs[fmt.Sprintf("university/seed=%d", seed)] = func(*testing.T) *Ontology { return MustParse(src) }
	}
	for name, build := range inputs {
		t.Run(name, func(t *testing.T) {
			base := build(t)
			queries := atomicQueriesOf(t, base.Rules())
			// The reference is only affordable where the chase is finite.
			var ref *oracle
			if _, err := base.AnswerOptions(queries[0], Options{Mode: ModeChase}); err == nil {
				var ok bool
				if ref, ok = oracleOf(base.Rules(), base.Data().Atoms(), 20*base.MaterializationStats().Steps+1000); !ok {
					t.Fatal("oracle over budget on a chase the engine finished")
				}
			}
			for _, mode := range []AnswerMode{ModeAuto, ModeChase} {
				for _, parts := range []int{1, 4} {
					for _, par := range []int{1, 2} {
						ont := build(t)
						opts := Options{Mode: mode, Partitions: parts, Parallelism: par}
						for _, q := range queries {
							diffReadPath(t, ont, ref, q, opts)
						}
					}
				}
			}
		})
	}
}

// diffReadPath runs one query through every surface × cache state × limit.
func diffReadPath(t *testing.T, ont *Ontology, ref *oracle, q string, opts Options) {
	t.Helper()
	surfaces := []struct {
		name string
		run  func(Options) ([]string, error)
	}{
		{"AnswerCtx", func(o Options) ([]string, error) {
			ans, err := ont.AnswerCtx(context.Background(), q, o)
			if err != nil {
				return nil, err
			}
			rows := make([]string, ans.Len())
			for i, a := range ans.Tuples() {
				rows[i] = naive.Render(a)
			}
			return rows, nil
		}},
		{"AnswerEach", func(o Options) ([]string, error) { return pushAnswers(ont, q, o) }},
		{"AnswerStream", func(o Options) ([]string, error) { return pullAnswers(ont, q, o) }},
	}
	dropViews := func() {
		ont.SetAnswerCacheBudget(0)
		ont.SetAnswerCacheBudget(DefaultAnswerCacheBytes)
	}
	for _, state := range []string{"off", "cold", "warm"} {
		o := opts
		o.NoCache = state == "off"
		dropViews()
		if state == "warm" {
			// The collector fills the view, through the parallel path when
			// Parallelism asks for it: that set is what every surface replays.
			if _, err := ont.AnswerCtx(context.Background(), q, o); err != nil {
				continue // budget hit; the cold leg compared the errors
			}
		}
		hitsBefore := ont.AnswerCacheStats().Hits
		stream, streamErr := surfaces[2].run(o)
		for _, limit := range []int{0, 1, len(stream)/2 + 1} {
			o.Limit = limit
			want := stream
			if limit > 0 && limit < len(stream) {
				want = stream[:limit]
			}
			for _, s := range surfaces {
				if state == "cold" {
					dropViews()
				}
				got, err := s.run(o)
				label := fmt.Sprintf("%s %+v cache=%s %s", q, o, state, s.name)
				if (err == nil) != (streamErr == nil) {
					t.Fatalf("%s: err = %v, the unlimited stream's was %v", label, err, streamErr)
				}
				if err != nil {
					continue
				}
				if limit == 0 {
					// Collected and parallel sets carry no order.
					got, want = slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s:\ngot  %v\nwant %v", label, got, want)
				}
				if limit == 0 && ref != nil && !slices.Equal(got, ref.answers(t, q)) {
					t.Fatalf("%s: answers differ from the oracle:\nengine: %v\noracle: %v", label, got, ref.answers(t, q))
				}
			}
		}
		if state == "warm" && streamErr == nil && ont.AnswerCacheStats().Hits < hitsBefore+10 {
			t.Fatalf("%s %+v: warm surfaces did not hit the view (hits %d → %d)", q, opts, hitsBefore, ont.AnswerCacheStats().Hits)
		}
	}
}

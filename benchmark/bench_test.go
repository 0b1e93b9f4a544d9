package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/datagen"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestStatsHelpers(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(ten); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); !near(got, 2) {
		t.Errorf("median of three = %v, want 2", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(ten)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q2, q3 = quartiles([]float64{16, 1, 8, 2, 4}); !near(q1, 1.5) || !near(q2, 4) || !near(q3, 12) {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := iqr(ten); !near(got, 5.5) {
		t.Errorf("iqr = %v, want 5.5", got)
	}
	if got := spread(ten); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(hundred, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v, want 100", got)
	}
	if ten[0] != 10 {
		t.Error("a helper reordered its input")
	}
}

func TestZipfDrawRepeatsPerSeed(t *testing.T) {
	pool := make([]poolQuery, 2000)
	draw := func(seed int64) []int {
		r := newReader("", pool, seed)
		out := make([]int, 5000)
		for i := range out {
			out[i] = r.draw()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	hot := make(map[int]int)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 drew %d then %d at position %d", a[i], b[i], i)
		}
		same = same && a[i] == c[i]
		hot[a[i]]++
	}
	if same {
		t.Error("seeds 7 and 8 drew the same sequence")
	}
	top := 0
	for _, n := range hot {
		top = max(top, n)
	}
	if top < len(a)/20 || len(hot) < 200 {
		t.Errorf("draw is not skewed with a long tail: hottest query %d of %d draws, %d distinct", top, len(a), len(hot))
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, OpID: 1, Layer: "server", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, OpID: 1, Layer: "eval", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, OpID: 1, Layer: "chase", StartNS: 30, EndNS: 60},
		{ID: 4, Parent: 1, OpID: 1, Layer: "chase", StartNS: 90, EndNS: 120}, // reaches past its parent
		{ID: 5, Parent: 3, OpID: 1, Layer: "storage", StartNS: 30, EndNS: 40},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 30, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	shares, explained := layerShares(spans)
	if !near(explained, 0.9) {
		t.Errorf("explained = %v, want 0.9", explained)
	}
	if !near(shares["chase"], 50.0/130) || !near(shares["server"], 40.0/130) {
		t.Errorf("shares = %v", shares)
	}
}

func TestReplayedSpansAreLaidOutInsideTheirParent(t *testing.T) {
	rec := newRecorder()
	root := rec.root(1, "ontology", "op", rec.epoch.Add(time.Microsecond), 100*time.Nanosecond)
	a := rec.child(root, "parser", "a", 30*time.Nanosecond)
	b := rec.child(root, "eval", "b", 50*time.Nanosecond)
	c := rec.child(b, "storage", "c", 20*time.Nanosecond)
	s := rec.spans
	if s[a-1].StartNS != s[root-1].StartNS || s[b-1].StartNS != s[a-1].EndNS || s[c-1].StartNS != s[b-1].StartNS {
		t.Errorf("layout: %+v", s)
	}
	self := selfTimes(s)
	if self[root] != 20 || self[b] != 30 {
		t.Errorf("self times %v", self)
	}
	for _, sp := range s[1:] {
		if !sp.Replay || sp.OpID != 1 {
			t.Errorf("replayed span %+v should carry its operation's id", sp)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 100, 150, 60, 100, 130, 80, 100}
	for _, c := range []struct {
		name         string
		old, new     []float64
		higherBetter bool
		want         string
	}{
		{"same", steady, steady, false, "unchanged"},
		{"latency up 20%", steady, scale(steady, 1.2), false, "regressed"},
		{"latency down 20%", steady, scale(steady, 0.8), false, "improved"},
		{"latency up 5%", steady, scale(steady, 1.05), false, "unchanged"},
		{"throughput down 20%", steady, scale(steady, 0.8), true, "regressed"},
		{"throughput up 20%", steady, scale(steady, 1.2), true, "improved"},
		{"noise wider than the bound", noisy, scale(noisy, 1.3), false, "unresolved"},
		{"a gain smaller than the old spread", steady, scale(steady, 0.995), false, "unchanged"},
	} {
		if got := verdict(c.old, c.new, c.higherBetter, 0.10); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// benchmarkJSON is BENCHMARK.json as far as the tests look at it.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQuickSmoke runs every workload end to end at smoke-test sizes, untraced
// and traced, and checks the output against BENCHMARK.json.
func TestQuickSmoke(t *testing.T) {
	contract := readBenchmarkJSON(t)
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c := contract.Workloads[i]; c.Name != w.name || c.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%s), the benchmark %q (%s)", i, c.Name, c.Why, w.name, w.why)
		}
		for _, trace := range []string{"0", "1"} {
			tracePath := filepath.Join(t.TempDir(), "trace.json")
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "0.1", "--trace", trace, "--quick", "--trace-out", tracePath}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s --trace %s: exit %d: %s", w.name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line %q: %v", w.name, lines[len(lines)-1], err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", w.name, trace, last.Correct, last.Attempted, last.Failed)
			}
			want := contract.EndToEnd
			if trace == "1" {
				want = contract.PerLayer
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(last.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s --trace %s: metric %s: got %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
				if trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, got.Value)
				}
			}
			if trace == "1" {
				checkSpanFile(t, w.name, tracePath)
			}
		}
	}
}

// checkSpanFile checks that the spans of one operation share its id and nest
// under its root span.
func checkSpanFile(t *testing.T, name, path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int]span)
	roots := 0
	for _, s := range doc.Spans {
		byID[s.ID] = s
	}
	for _, s := range doc.Spans {
		if s.Parent == 0 {
			if s.OpID != 0 {
				roots++
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.OpID != s.OpID || s.StartNS < p.StartNS {
			t.Fatalf("%s: span %+v does not nest under %+v", name, s, p)
		}
	}
	if roots == 0 {
		t.Errorf("%s: the span file holds no operation", name)
	}
}

// TestWrongOutputFailsTheRun shows the path from a wrong output to a non-zero
// exit: a closed-form count that is off by one is reported, and a result that
// carries a problem makes the command exit 1 with "correct": false.
func TestWrongOutputFailsTheRun(t *testing.T) {
	o := repro.New(datagen.University(), datagen.UniversityData(4, 1))
	if _, err := o.AnswerCtx(ctx, personQuery, repro.Options{Mode: repro.ModeChase}); err != nil {
		t.Fatal(err)
	}
	want := universityExpect(4)
	if bad := checkMaterialization(o, want); len(bad) != 0 {
		t.Fatalf("the closed forms do not hold: %v", bad)
	}
	want.steps++
	bad := checkMaterialization(o, want)
	if len(bad) != 1 {
		t.Fatalf("a wrong expected step count went unnoticed: %v", bad)
	}
	var out bytes.Buffer
	res := &result{workload: "chase_build", attempted: 1, failed: 1, problems: bad}
	if code := report(res, config{}, &out, io.Discard); code != 1 {
		t.Errorf("exit code %d for a failed run, want 1", code)
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("output does not say the run was wrong: %s", out.String())
	}
}

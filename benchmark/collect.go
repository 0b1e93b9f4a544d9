package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// contract is the part of BENCHMARK.json the comparing modes need: which
// metrics are gated, in which direction and by how much.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadContract reads BENCHMARK.json from the working directory, which is the
// repository root for every way of starting the benchmark.
func loadContract() (*contract, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// collection is the values of repeated runs: workload -> metric -> one value
// per seed, in seed order. It holds the end-to-end metrics and the
// diagnostics printed beside them.
type collection struct {
	Header map[string]any                  `json:"header"`
	Runs   map[string]map[string][]float64 `json:"runs"`
}

// runChild runs one workload once in a process of its own, as the driver
// does, and returns its end-to-end and diagnostic values.
func runChild(w string, seed int, seconds float64) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", w, "--seed", strconv.Itoa(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %v: %s", w, seed, err, errOut.String())
	}
	values := make(map[string]float64)
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 5 || f[0] != w || (f[4] != "e2e" && f[4] != "diag") {
			continue
		}
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: line %q: %v", w, seed, sc.Text(), err)
		}
		values[f[1]] = v
	}
	return values, sc.Err()
}

func (c *collection) add(w string, values map[string]float64) {
	if c.Runs[w] == nil {
		c.Runs[w] = make(map[string][]float64)
	}
	for m, v := range values {
		c.Runs[w][m] = append(c.Runs[w][m], v)
	}
}

func newCollection(seconds float64) *collection {
	return &collection{Header: header(config{seconds: seconds}), Runs: make(map[string]map[string][]float64)}
}

// runCollect runs every workload once per seed 1..runs and writes the values.
func runCollect(path string, runs int, seconds float64, stderr io.Writer) int {
	c := newCollection(seconds)
	for _, w := range workloads {
		for seed := 1; seed <= runs; seed++ {
			fmt.Fprintf(stderr, "%s seed %d\n", w.name, seed)
			values, err := runChild(w.name, seed, seconds)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			c.add(w.name, values)
		}
	}
	if err := c.write(path); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func (c *collection) write(path string) error {
	raw, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// worsening is how much worse new's median is than old's, as a share of
// old's: positive means worse in the metric's direction.
func worsening(old, new []float64, higherBetter bool) float64 {
	o, n := median(old), median(new)
	if o == 0 {
		return 0
	}
	if higherBetter {
		return (o - n) / o
	}
	return (n - o) / o
}

// verdict judges new against old for one metric of one workload, run on the
// same seeds in the same order:
//
//	unresolved  either side's interquartile range is wider than the bound,
//	            so the runs cannot tell a change of that size from noise
//	regressed   new's median is worse than old's by more than the bound
//	improved    new wins at least nine tenths of the seed pairs (ties count
//	            for neither) and the medians differ by more than old's
//	            interquartile range
//	unchanged   otherwise
func verdict(old, new []float64, higherBetter bool, bound float64) string {
	if spread(old) > bound || spread(new) > bound {
		return "unresolved"
	}
	worse := worsening(old, new, higherBetter)
	if worse > bound {
		return "regressed"
	}
	wins, pairs := 0, 0
	for i := 0; i < len(old) && i < len(new); i++ {
		if old[i] == new[i] {
			continue
		}
		pairs++
		if (new[i] > old[i]) == higherBetter {
			wins++
		}
	}
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && -worse*median(old) > iqr(old) {
		return "improved"
	}
	return "unchanged"
}

func readCollection(path string) (*collection, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c collection
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// compareFiles prints one row per workload and end-to-end metric and returns
// 1 if any row regressed.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	ct, err := loadContract()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	old, err := readCollection(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	new, err := readCollection(newPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-18s %-13s %12s %8s %12s %8s %9s %6s  %s\n", "workload", "metric", "old median", "old iqr", "new median", "new iqr", "new/old", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range ct.EndToEnd {
			o, n := old.Runs[w.name][m.Name], new.Runs[w.name][m.Name]
			if len(o) == 0 || len(n) == 0 {
				fmt.Fprintf(stderr, "%s %s: missing from one of the files\n", w.name, m.Name)
				return 2
			}
			v := verdict(o, n, m.Better == "higher", m.Bound)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-18s %-13s %12.5g %7.1f%% %12.5g %7.1f%% %9.3f %5.0f%%  %s\n",
				w.name, m.Name, median(o), 100*spread(o), median(n), 100*spread(n), median(n)/median(o), 100*m.Bound, v)
		}
	}
	return code
}

// runAA runs the end-to-end suite twice on this binary, the two sets
// interleaved seed by seed with alternating order, and reports in Markdown
// whether they agree within the bounds BENCHMARK.json fixes: the evidence the
// bounds rest on. With a path, set A's values are written there as -collect
// would write them.
func runAA(runs int, seconds float64, path string, stdout, stderr io.Writer) int {
	ct, err := loadContract()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	sets := [2]*collection{newCollection(seconds), newCollection(seconds)}
	for _, w := range workloads {
		for seed := 1; seed <= runs; seed++ {
			for k := 0; k < 2; k++ {
				set := (seed + k) % 2 // odd seeds run B first
				fmt.Fprintf(stderr, "%s seed %d set %c\n", w.name, seed, 'A'+set)
				values, err := runChild(w.name, seed, seconds)
				if err != nil {
					fmt.Fprintln(stderr, err)
					return 1
				}
				sets[set].add(w.name, values)
			}
		}
	}
	if path != "" {
		if err := sets[0].write(path); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	h, _ := json.Marshal(sets[0].Header)
	fmt.Fprintf(stdout, "# A/A: two sets of %d runs (seeds 1..%d) of the same binary, interleaved\n\n`%s`\n\n", runs, runs, h)
	fmt.Fprintln(stdout, "`spread` is the interquartile range of a set's values as a share of their median.")
	fmt.Fprintln(stdout, "A gated metric agrees when both spreads are within its bound (the set-up time's spread is not judged) and B's median is not worse than A's by more than the bound.")
	fmt.Fprintln(stdout, "Rows without a bound are diagnostics.")
	code := 0
	for _, w := range workloads {
		fmt.Fprintf(stdout, "\n## %s\n\n| metric | A median | A spread | B median | B spread | B worse by | bound | agree |\n|---|---|---|---|---|---|---|---|\n", w.name)
		gated := make(map[string]bool)
		row := func(name string, higherBetter bool, bound float64) {
			a, b := sets[0].Runs[w.name][name], sets[1].Runs[w.name][name]
			if len(a) == 0 {
				return
			}
			worse := worsening(a, b, higherBetter)
			boundCol, agree := "", ""
			if bound > 0 {
				ok := worse <= bound && (name == "setup_s" || spread(a) <= bound && spread(b) <= bound)
				boundCol, agree = fmt.Sprintf("%.0f%%", 100*bound), "yes"
				if !ok {
					agree, code = "**no**", 1
				}
			}
			fmt.Fprintf(stdout, "| %s | %.5g | %.1f%% | %.5g | %.1f%% | %+.1f%% | %s | %s |\n",
				name, median(a), 100*spread(a), median(b), 100*spread(b), 100*worse, boundCol, agree)
		}
		for _, m := range ct.EndToEnd {
			gated[m.Name] = true
			row(m.Name, m.Better == "higher", m.Bound)
		}
		for _, name := range sortedKeys(sets[0].Runs[w.name]) {
			if !gated[name] {
				row(name, false, 0)
			}
		}
	}
	return code
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

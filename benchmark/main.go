// Command benchmark is this repository's one benchmark: six named workloads,
// each run in a process of its own, reporting either the end-to-end metrics a
// user of the system would see (--trace 0) or the per-layer metrics that say
// which module spent the time (--trace 1). README.md in this directory says
// what each workload and metric is for and how they should move together;
// BENCHMARK.json at the repository root is the contract a driver reads.
//
//	go run ./benchmark --workload chase_build --seed 1 --seconds 12 --trace 0
//	go run ./benchmark -aa > benchmark/AA.md
//	go run ./benchmark -collect new.json && go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// workloads lists the traffic mixes. The reasons are repeated, with the
// control each workload provides, in README.md and BENCHMARK.json.
var workloads = []workload{
	{"onboard_rewrite", "new ontologies and new queries every time: parsing, SWR/WR classification and rewriting do the work, every cache misses", setupOnboard},
	{"chase_build", "materializing 37 000 facts into 81 000 on one worker: chase and storage do the work, as in every other workload's set-up", setupChaseBuild(1)},
	{"chase_build_p2", "the same materialization on two workers: the only place the parallel chase can win or lose", setupChaseBuild(2)},
	{"answer_scan", "full answers over 74 000 facts with the answer cache bypassed: plan execution and dedup do the work", setupAnswerScan},
	{"serve_read_zipf", "tiny cached answers over HTTP from two connections, Zipf-skewed: server, transport and answer cache do the work", setupServeRead},
	{"serve_live_update", "one connection inserts and deletes facts while another reads: the mutation pipeline, incremental chase and view maintenance do the work", setupServeLive},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the exit, so that tests can call it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (required unless -aa, -collect or -compare)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 12, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a span file")
	traceOut := fs.String("trace-out", "benchmark/out/trace.json", "where --trace 1 writes its spans")
	quick := fs.Bool("quick", false, "smoke-test sizes (4 departments, one set-up); not for reported numbers")
	aa := fs.Bool("aa", false, "run every workload twice per seed, interleaved, and report whether the two sets agree (Markdown)")
	collect := fs.String("collect", "", "run every workload once per seed and write the values to this file (with -aa: set A's values)")
	runs := fs.Int("runs", 10, "seeds per workload for -aa and -collect")
	compare := fs.Bool("compare", false, "compare two -collect files: benchmark -compare OLD.json NEW.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare OLD.json NEW.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *aa:
		return runAA(*runs, *seconds, *collect, stdout, stderr)
	case *collect != "":
		return runCollect(*collect, *runs, *seconds, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q; the workloads are:\n", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, "  %-18s %s\n", w.name, w.why)
		}
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick}
	res, rec, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if rec != nil {
		if err := rec.write(*traceOut, header(cfg)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return report(res, cfg, stdout, stderr)
}

// header describes the run: what a reader needs to judge whether two runs are
// comparable.
func header(cfg config) map[string]any {
	h := map[string]any{
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h["commit"] = s.Value
			}
		}
	}
	return h
}

// report prints the run header, one `workload metric unit value class` line
// per number and, last, the JSON object the driver reads. It returns the exit
// code: non-zero when any operation failed or any check found a wrong output.
func report(res *result, cfg config, stdout, stderr io.Writer) int {
	h, _ := json.Marshal(header(cfg))
	fmt.Fprintf(stdout, "# %s\n", h)
	want := "e2e"
	if cfg.trace {
		want = "layer"
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value)
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%s %s %s %v %s\n", res.workload, m.name, m.unit, m.value, m.class)
		if m.class == want {
			out[m.name] = value{m.value, m.unit}
		}
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "WRONG:", p)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.correct {
		return 1
	}
	return 0
}

// Command rewrite compiles a conjunctive query over a TGD file into its
// first-order rewriting, printed as a union of conjunctive queries — and,
// with -eval, evaluates the rewriting over a data file the way a DBMS would.
// The rules and data are loaded through repro.ParseFiles, so a program that
// uses one predicate with two arities is rejected.
//
// Usage:
//
//	rewrite -rules ont.rules -query 'ans(X,Y) :- r(X,Y) .' [-trace]
//	rewrite -rules ont.rules -data ont.data -query '...' -eval -timeout 500ms
//
// -timeout bounds the run: rewriting checks the deadline between pool
// entries and evaluation polls it inside the join loop, so both phases abort
// promptly.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	repro "repro"
	"repro/internal/cliflags"
	"repro/internal/eval"
	"repro/internal/rewrite"
)

func main() {
	rulesPath := flag.String("rules", "", "path to a .rules file of TGDs")
	dataPath := flag.String("data", "", "path to a .data file (used with -eval)")
	querySrc := flag.String("query", "", "conjunctive query, e.g. 'q(X) :- r(X,Y) .'")
	trace := flag.Bool("trace", false, "print the chain of rules that rewrote each disjunct")
	evalFlag := flag.Bool("eval", false, "evaluate the rewriting over the -data instance and print the certain answers")
	maxCQs := flag.Int("max-cqs", 0, "budget on generated CQs (0 = default)")
	shared := cliflags.Bind(flag.CommandLine)
	shared.BindLimit(flag.CommandLine)
	flag.Parse()
	if *rulesPath == "" || *querySrc == "" {
		fmt.Fprintln(os.Stderr, "usage: rewrite -rules FILE -query 'q(X) :- ... .' [-trace] [-eval -data FILE] [-timeout D]")
		os.Exit(2)
	}
	if *evalFlag && *dataPath == "" {
		fmt.Fprintln(os.Stderr, "rewrite: -eval needs a -data file to evaluate over")
		os.Exit(2)
	}
	var dataPaths []string
	if *dataPath != "" {
		dataPaths = append(dataPaths, *dataPath)
	}
	ont, err := repro.ParseFiles(*rulesPath, dataPaths...)
	if err != nil {
		cliflags.Fatal(err)
	}
	q, err := repro.ParseQuery(*querySrc)
	if err != nil {
		cliflags.Fatal(err)
	}
	ctx, cancel := shared.Context()
	defer cancel()

	opts := rewrite.DefaultOptions()
	opts.MaxCQs = *maxCQs
	res := rewrite.RewriteCtx(ctx, q, ont.Rules(), opts)
	if res.Err != nil {
		cliflags.Fatal(fmt.Errorf("rewriting aborted after %d CQs: %w", res.Generated, res.Err))
	}
	if !res.Complete {
		fmt.Fprintf(os.Stderr, "warning: rewriting incomplete after %d CQs (not FO-rewritable or budget too small)\n", res.Generated)
	}
	switch {
	case *trace:
		for i, cq := range res.UCQ.CQs {
			path := "input"
			if len(res.Paths[i]) > 0 {
				path = strings.Join(res.Paths[i], " , ")
			}
			fmt.Printf("%s   %% via %s\n", cq, path)
		}
	case *evalFlag:
		data := ont.Data()
		ans, err := eval.UCQCtx(ctx, res.UCQ, data, shared.EvalOptions())
		if err != nil {
			cliflags.Fatal(err)
		}
		fmt.Println(ans)
		fmt.Fprintf(os.Stderr, "%d answers over %d facts\n", ans.Len(), data.Size())
	default:
		fmt.Println(res.UCQ)
	}
	fmt.Fprintf(os.Stderr, "%d disjuncts, %d generated, depth %d\n",
		res.Kept, res.Generated, res.MaxDepthSeen)
}

// Command rewrite compiles a conjunctive query over a TGD file into its
// first-order rewriting, printed as a union of conjunctive queries or as
// SQL — and, with -eval, evaluates the rewriting over a data file the way a
// DBMS would, making -parallel meaningful.
//
// Usage:
//
//	rewrite -rules testdata/example1.rules -query 'ans(X,Y) :- r(X,Y) .'
//	rewrite -rules testdata/example1.rules -query '...' -sql
//	rewrite -rules testdata/family.rules -data testdata/family.data \
//	        -query '...' -eval -parallel 4 -timeout 500ms
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

	"repro/internal/cliflags"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/rewrite"
	"repro/internal/sqlgen"
	"repro/internal/storage"
)

func main() {
	rulesPath := flag.String("rules", "", "path to a .rules file of TGDs")
	dataPath := flag.String("data", "", "path to a .data file (used with -eval)")
	querySrc := flag.String("query", "", "conjunctive query, e.g. 'q(X) :- r(X,Y) .'")
	sql := flag.Bool("sql", false, "print the rewriting as SQL")
	trace := flag.Bool("trace", false, "print the rule derivation path of each disjunct")
	evalFlag := flag.Bool("eval", false, "evaluate the rewriting over the -data instance and print the certain answers")
	maxCQs := flag.Int("max-cqs", 0, "budget on generated CQs (0 = default)")
	shared := cliflags.Bind(flag.CommandLine)
	shared.BindLimit(flag.CommandLine)
	flag.Parse()
	if *rulesPath == "" || *querySrc == "" {
		fmt.Fprintln(os.Stderr, "usage: rewrite -rules FILE -query 'q(X) :- ... .' [-sql] [-eval -data FILE] [-timeout D]")
		os.Exit(2)
	}
	if *evalFlag && *dataPath == "" {
		fmt.Fprintln(os.Stderr, "rewrite: -eval needs a -data file to evaluate over")
		os.Exit(2)
	}
	prog, err := parser.ParseFile(*rulesPath)
	if err != nil {
		cliflags.Fatal(err)
	}
	set, err := prog.RuleSet()
	if err != nil {
		cliflags.Fatal(err)
	}
	pq, err := parser.ParseQuery(*querySrc)
	if err != nil {
		cliflags.Fatal(err)
	}
	q, err := query.New(pq.Head, pq.Body)
	if err != nil {
		cliflags.Fatal(err)
	}
	ctx, cancel := shared.Context()
	defer cancel()

	opts := rewrite.DefaultOptions()
	opts.MaxCQs = *maxCQs
	res := rewrite.RewriteCtx(ctx, q, set, opts)
	if res.Err != nil {
		cliflags.Fatal(fmt.Errorf("rewriting aborted after %d CQs: %w", res.Generated, res.Err))
	}
	if !res.Complete {
		fmt.Fprintf(os.Stderr, "warning: rewriting incomplete after %d CQs (not FO-rewritable or budget too small)\n", res.Generated)
	}
	switch {
	case *sql:
		s, err := sqlgen.UCQ(res.UCQ, sqlgen.Options{Distinct: true, Pretty: true})
		if err != nil {
			cliflags.Fatal(err)
		}
		fmt.Println(s)
	case *trace:
		for i, cq := range res.UCQ.CQs {
			path := "input"
			if len(res.Paths[i]) > 0 {
				path = strings.Join(res.Paths[i], " , ")
			}
			fmt.Printf("%s   %% via %s\n", cq, path)
		}
	case *evalFlag:
		data, err := loadData(*dataPath)
		if err != nil {
			cliflags.Fatal(err)
		}
		eopts, err := shared.EvalOptions()
		if err != nil {
			cliflags.Fatal(err)
		}
		ans, err := eval.UCQCtx(ctx, res.UCQ, data, eopts)
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

// loadData reads a facts-only program file into an instance.
func loadData(path string) (*storage.Instance, error) {
	prog, err := parser.ParseFile(path)
	if err != nil {
		return nil, err
	}
	if len(prog.Rules) != 0 || len(prog.Queries) != 0 {
		return nil, fmt.Errorf("%s: data file contains rules or queries", path)
	}
	return storage.FromAtoms(prog.Facts)
}

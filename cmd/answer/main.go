// Command answer computes certain answers to a conjunctive query over an
// ontology (rules + data), via rewriting, the chase, or automatically per
// the classification.
//
// Usage:
//
//	answer -rules ont.rules -data ont.data \
//	       -query 'q(X,Y) :- ancestor(X,Y) .' [-mode auto|rewrite|chase] \
//	       [-timeout 500ms]
//
// With -add, the query is answered, the facts are inserted (AddFact), and
// the query is answered again; -delete does the same with DeleteFact
// (DRed-style incremental repair of the materialization). In chase mode the
// second answer is served from the incrementally maintained materialization
// — the printed stats show the delta-proportional step count.
// -incremental=false instead rebuilds the whole ontology from scratch for
// comparison. -timeout bounds the whole run (parsing aside): an expired
// deadline aborts rewriting, chase rounds and join execution mid-flight, and
// an in-flight mutation publishes none of its changes.
package main

import (
	"flag"
	"fmt"
	"os"

	repro "repro"
	"repro/internal/cliflags"
)

func main() {
	rulesPath := flag.String("rules", "", "path to a .rules file")
	dataPath := flag.String("data", "", "path to a .data file")
	querySrc := flag.String("query", "", "conjunctive query")
	mode := flag.String("mode", "auto", "auto | rewrite | chase")
	add := flag.String("add", "", "facts (program text) to AddFact after the first answer, then re-answer")
	del := flag.String("delete", "", "facts (program text) to DeleteFact after the first answer (and any -add), then re-answer")
	addRule := flag.String("add-rule", "", "a TGD (rule text) to AddRule after the first answer, then re-answer")
	dropRule := flag.String("drop-rule", "", "label of a rule (e.g. R2) to RemoveRule after the first answer, then re-answer")
	incremental := flag.Bool("incremental", true, "with -add/-delete/-add-rule/-drop-rule: maintain the published materialization incrementally (false = rebuild the ontology from scratch)")
	shared := cliflags.Bind(flag.CommandLine)
	shared.BindLimit(flag.CommandLine)
	flag.Parse()
	if *rulesPath == "" || *querySrc == "" {
		fmt.Fprintln(os.Stderr, "usage: answer -rules FILE [-data FILE] -query 'q(X) :- ... .' [-mode M] [-timeout D] [-add 'f(a) .']")
		os.Exit(2)
	}
	m, err := cliflags.ParseMode(*mode)
	if err != nil {
		cliflags.Fatal(err)
	}
	opts := shared.Options(m)
	ctx, cancel := shared.Context()
	defer cancel()

	ont := load(*rulesPath, *dataPath)
	ans, err := ont.AnswerCtx(ctx, *querySrc, opts)
	if err != nil {
		cliflags.Fatal(err)
	}
	fmt.Println(ans)
	fmt.Fprintf(os.Stderr, "%d answers\n", ans.Len())
	if st := ont.MaterializationStats(); st.Cached {
		fmt.Fprintf(os.Stderr, "materialization: epoch=%d facts=%d steps=%d rounds=%d\n",
			st.Epoch, st.Facts, st.Steps, st.Rounds)
	}

	if *add == "" && *del == "" && *addRule == "" && *dropRule == "" {
		return
	}
	if !*incremental {
		// From-scratch comparison path: a fresh ontology re-chases
		// everything on the next answer (DeleteFact on it only touches the
		// base data; rule mutations on it just swap the set, with no
		// materialization to repair).
		ont = load(*rulesPath, *dataPath)
	}
	if *add != "" {
		if err := ont.AddFactCtx(ctx, *add); err != nil {
			cliflags.Fatal(err)
		}
	}
	if *del != "" {
		n, err := ont.DeleteFactCtx(ctx, *del)
		if err != nil {
			cliflags.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "deleted %d base facts\n", n)
	}
	if *addRule != "" {
		if err := ont.AddRuleCtx(ctx, *addRule); err != nil {
			cliflags.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "added rule; set now has %d rules\n", ont.Rules().Len())
	}
	if *dropRule != "" {
		if err := ont.RemoveRuleCtx(ctx, *dropRule); err != nil {
			cliflags.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "removed rule %s; set now has %d rules\n", *dropRule, ont.Rules().Len())
	}
	ans, err = ont.AnswerCtx(ctx, *querySrc, opts)
	if err != nil {
		cliflags.Fatal(err)
	}
	fmt.Println("--- after updates ---")
	fmt.Println(ans)
	fmt.Fprintf(os.Stderr, "%d answers\n", ans.Len())
	if st := ont.MaterializationStats(); st.Cached {
		fmt.Fprintf(os.Stderr, "materialization: epoch=%d facts=%d steps=%d rounds=%d (last increment: steps=%d rounds=%d)\n",
			st.Epoch, st.Facts, st.Steps, st.Rounds, st.LastSteps, st.LastRounds)
	}
}

func load(rulesPath, dataPath string) *repro.Ontology {
	var ont *repro.Ontology
	var err error
	if dataPath != "" {
		ont, err = repro.ParseFiles(rulesPath, dataPath)
	} else {
		ont, err = repro.ParseFiles(rulesPath)
	}
	if err != nil {
		cliflags.Fatal(err)
	}
	return ont
}

// Command chase materializes a database with a TGD file using the
// restricted chase and prints the expanded instance. The rules and data are
// loaded through repro.ParseFiles, so a program that uses one predicate with
// two arities is rejected before the engine runs.
//
// Usage:
//
//	chase -rules ont.rules -data ont.data
//
// With -add, extra facts are folded in after the initial chase; -incremental
// extends the already-chased instance by resuming the engine with just those
// facts as the delta (the maintenance path Ontology.AddFact uses), while
// without it the full input is re-chased from scratch for comparison. With
// -delete, facts are removed after the initial chase (and after -add):
// incrementally by DRed over-deletion and rederiving (the path
// Ontology.DeleteFact uses), or by a from-scratch re-chase of the surviving
// input. -add-rule and -drop-rule change the rule set the same two ways.
//
// -timeout bounds the whole run: an expired deadline stops the engine at
// the current round barrier without merging it and the command exits
// non-zero.
package main

import (
	"flag"
	"fmt"
	"os"

	repro "repro"
	"repro/internal/chase"
	"repro/internal/cliflags"
	"repro/internal/parser"
	"repro/internal/storage"
)

func main() {
	rulesPath := flag.String("rules", "", "path to a .rules file of TGDs")
	dataPath := flag.String("data", "", "path to a .data file of facts")
	add := flag.String("add", "", "extra facts (program text) to fold in after the initial chase")
	del := flag.String("delete", "", "facts (program text) to delete after the initial chase")
	addRule := flag.String("add-rule", "", "a TGD (rule text, e.g. 'p(X) -> q(X) .') to add after the initial chase")
	dropRule := flag.String("drop-rule", "", "label of a rule (e.g. R2) to remove after the initial chase")
	incremental := flag.Bool("incremental", false, "with -add/-delete/-add-rule/-drop-rule: maintain the chased instance incrementally instead of re-chasing")
	shared := cliflags.Bind(flag.CommandLine)
	flag.Parse()
	if *rulesPath == "" {
		fmt.Fprintln(os.Stderr, "usage: chase -rules FILE [-data FILE] [-timeout D] [-add 'f(a) .'] [-delete 'f(a) .'] [-add-rule 'p(X) -> q(X) .'] [-drop-rule R2] [-incremental]")
		os.Exit(2)
	}
	var dataPaths []string
	if *dataPath != "" {
		dataPaths = append(dataPaths, *dataPath)
	}
	ont, err := repro.ParseFiles(*rulesPath, dataPaths...)
	if err != nil {
		fatal(err)
	}
	set, data := ont.Rules(), ont.Data().Clone()
	opts := chase.Options{MaxSteps: shared.MaxSteps, MaxRounds: shared.MaxRounds}
	ctx, cancel := shared.Context()
	defer cancel()

	st := chase.NewState(opts)
	ins := data.Clone()
	res := st.ResumeCtx(ctx, set, ins, ins)
	checkCtx(res, ins)
	report("initial", res, ins)

	if (*add != "" || *del != "" || *addRule != "" || *dropRule != "") && *incremental && !res.Terminated {
		// Maintaining a truncated chase is unsound (dropped triggers are
		// never reconsidered); re-chase the full input instead.
		fmt.Fprintln(os.Stderr, "initial chase truncated; -incremental is unsound, re-chasing from scratch")
		*incremental = false
	}
	if *add != "" {
		extra, err := parser.ParseFacts(*add)
		if err != nil {
			fatal(err)
		}
		// The ontology checks the facts against the program's signature;
		// the engine below assumes they agree.
		if err := ont.AddFactCtx(ctx, *add); err != nil {
			fatal(err)
		}
		if *incremental {
			res, err = st.ExtendCtx(ctx, set, ins, extra)
			if err != nil {
				fatal(err)
			}
			checkCtx(res, ins)
			report("incremental add", res, ins)
			for _, f := range extra {
				if err := data.InsertAtom(f); err != nil {
					fatal(err)
				}
			}
		} else {
			for _, f := range extra {
				if err := data.InsertAtom(f); err != nil {
					fatal(err)
				}
			}
			res = chase.RunCtx(ctx, set, data, opts)
			ins = res.Instance
			checkCtx(res, ins)
			report("re-chase", res, ins)
		}
	}
	if *del != "" {
		doomed, err := parser.ParseFacts(*del)
		if err != nil {
			fatal(err)
		}
		for _, f := range doomed {
			data.Remove(f)
		}
		if *incremental && !res.Terminated {
			// The -add increment truncated after a terminated initial chase:
			// deleting from a truncated state is unsound, same fallback.
			fmt.Fprintln(os.Stderr, "increment truncated; -incremental is unsound, re-chasing from scratch")
			*incremental = false
		}
		if *incremental {
			dres, err := st.DeleteCtx(ctx, set, ins, doomed, data)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "dred: requested=%d over-deleted=%d rederived=%d\n",
				dres.Requested, dres.OverDeleted, dres.Rederived)
			res = dres.Result
			checkCtx(res, ins)
			report("incremental delete", res, ins)
		} else {
			res = chase.RunCtx(ctx, set, data, opts)
			ins = res.Instance
			checkCtx(res, ins)
			report("re-chase", res, ins)
		}
	}
	if *addRule != "" {
		rule, err := parser.ParseRule(*addRule)
		if err != nil {
			fatal(err)
		}
		if err := ont.AddRuleCtx(ctx, *addRule); err != nil {
			fatal(err) // the rule clashes with the program's signature
		}
		next, err := set.WithRule(rule)
		if err != nil {
			fatal(err)
		}
		// Gate on the engine state, not just the latest result: an earlier
		// truncated increment poisons st even after a re-chase refreshed res.
		if *incremental && res.Terminated && !st.Truncated() {
			// Resume with the whole instance as delta against the new rule only.
			res = st.ExtendRulesCtx(ctx, next, ins, set.Len())
			checkCtx(res, ins)
			report("incremental add-rule", res, ins)
		} else {
			res = chase.RunCtx(ctx, next, data, opts)
			ins = res.Instance
			checkCtx(res, ins)
			report("re-chase (add-rule)", res, ins)
		}
		set = next
	}
	if *dropRule != "" {
		ri := set.IndexOfLabel(*dropRule)
		if ri < 0 {
			fatal(fmt.Errorf("no rule labeled %q (have: %d rules)", *dropRule, set.Len()))
		}
		next, err := set.WithoutRule(ri)
		if err != nil {
			fatal(err)
		}
		if *incremental && res.Terminated && !st.Truncated() {
			dres, err := st.DeleteRuleCtx(ctx, next, ins, ri, data)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "dred rule %s: removed=%d over-deleted=%d rederived=%d\n",
				*dropRule, dres.Requested, dres.OverDeleted, dres.Rederived)
			res = dres.Result
			checkCtx(res, ins)
			report("incremental drop-rule", res, ins)
		} else {
			res = chase.RunCtx(ctx, next, data, opts)
			ins = res.Instance
			checkCtx(res, ins)
			report("re-chase (drop-rule)", res, ins)
		}
		set = next
	}
	fmt.Println(ins)
}

// checkCtx terminates the run when the -timeout deadline aborted the engine
// (Result.Err): partial engine state is unsafe to keep mutating, so the
// command reports how far it got and exits non-zero.
func checkCtx(res *chase.Result, ins *storage.Instance) {
	if res.Err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "chase aborted: %v (after %d steps, %d facts)\n", res.Err, res.Steps, ins.Size())
	os.Exit(1)
}

func report(phase string, res *chase.Result, ins *storage.Instance) {
	fmt.Fprintf(os.Stderr, "restricted chase (%s): terminated=%v steps=%d rounds=%d nulls=%d facts=%d\n",
		phase, res.Terminated, res.Steps, res.Rounds, res.NullsCreated, ins.Size())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

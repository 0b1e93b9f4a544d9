// Command classify reports which TGD classes a rule file belongs to —
// the paper's full landscape (simple, Linear, Multilinear, Sticky,
// Sticky-Join, Guarded, Domain-Restricted, Weakly-Acyclic, Acyclic-GRD,
// SWR, WR) — and the recommended query-answering strategy.
//
// Usage:
//
//	classify -rules ont.rules [-timeout 5s]
//
// Classification runs over the rules only (no data), through the same
// cached path serving-layer auto-mode answering uses (Ontology.Classify).
// -timeout bounds the run; the graph constructions have no internal
// cancellation hook, so the deadline is enforced from outside.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/cliflags"
)

func main() {
	rulesPath := flag.String("rules", "", "path to a .rules file of TGDs")
	shared := cliflags.BindTimeout(flag.CommandLine)
	flag.Parse()
	if *rulesPath == "" {
		fmt.Fprintln(os.Stderr, "usage: classify -rules FILE [-timeout D]")
		os.Exit(2)
	}
	ont, err := repro.ParseFiles(*rulesPath)
	if err != nil {
		cliflags.Fatal(err)
	}
	fmt.Printf("%d rules from %s\n\n", ont.Rules().Len(), *rulesPath)
	if err := shared.RunTimeout(func() error {
		fmt.Print(ont.Classify())
		return nil
	}); err != nil {
		cliflags.Fatal(err)
	}
}

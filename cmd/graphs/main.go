// Command graphs emits Graphviz DOT for the paper's graph constructions
// over a rule file: the position graph (Figures 1 and 2), the P-node graph
// (Figure 3), or the graph of rule dependencies.
//
// Usage:
//
//	graphs -rules testdata/example1.rules -graph position   > fig1.dot
//	graphs -rules testdata/example2.rules -graph pnode      > fig3.dot
//	graphs -rules testdata/example3.rules -graph grd        > grd.dot
//
// -timeout bounds the run; the graph constructions have no internal
// cancellation hook, so the deadline is enforced from outside.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/dependency"
	"repro/internal/dot"
	"repro/internal/grd"
	"repro/internal/parser"
	"repro/internal/pnode"
	"repro/internal/posgraph"
)

func main() {
	rulesPath := flag.String("rules", "", "path to a .rules file")
	graph := flag.String("graph", "position", "position | pnode | grd")
	shared := cliflags.BindTimeout(flag.CommandLine)
	flag.Parse()
	if *rulesPath == "" {
		fmt.Fprintln(os.Stderr, "usage: graphs -rules FILE -graph position|pnode|grd [-timeout D]")
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
	if err := shared.RunTimeout(func() error {
		return emit(set, *graph)
	}); err != nil {
		cliflags.Fatal(err)
	}
}

// emit builds the requested graph and prints its DOT rendering.
func emit(set *dependency.Set, kind string) error {
	switch kind {
	case "position":
		g := posgraph.Build(set)
		fmt.Print(dot.PositionGraph(g, "positiongraph"))
		if dc := g.DangerousCycles(); len(dc) > 0 {
			fmt.Fprintf(os.Stderr, "dangerous: %v\n", dc[0])
		}
	case "pnode":
		g := pnode.Build(set)
		fmt.Print(dot.PNodeGraph(g, "pnodegraph"))
		if dc := g.DangerousCycles(); len(dc) > 0 {
			fmt.Fprintf(os.Stderr, "dangerous: %v\n", dc[0])
		}
	case "grd":
		g := grd.Build(set)
		labels := make([]string, set.Len())
		for i, r := range set.Rules {
			labels[i] = r.Label
		}
		fmt.Print(dot.RuleDependencies(g, labels, "grd"))
	default:
		return fmt.Errorf("unknown graph kind %q", kind)
	}
	return nil
}

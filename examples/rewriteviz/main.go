// Rewriteviz: regenerates the paper's three figures as Graphviz DOT and
// prints a rewriting trace that exhibits Example 2's unbounded chain — the
// phenomenon the P-node graph exists to detect.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/dot"
	"repro/internal/parser"
	"repro/internal/pnode"
	"repro/internal/posgraph"
	"repro/internal/query"
	"repro/internal/rewrite"
)

func main() {
	outDir := "figures"
	if len(os.Args) > 1 {
		outDir = os.Args[1]
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	ex1 := parser.MustParseRules(`
s(Y1,Y2,Y3), t(Y4) -> r(Y1,Y3) .
v(Y1,Y2), q(Y2) -> s(Y1,Y3,Y2) .
r(Y1,Y2) -> v(Y1,Y2) .
`)
	ex2 := parser.MustParseRules(`
t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .
s(Y1,Y1,Y2) -> r(Y2,Y3) .
`)

	write := func(name, content string) {
		path := filepath.Join(outDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
	write("figure1_position_graph.dot", dot.PositionGraph(posgraph.Build(ex1), "figure1"))
	write("figure2_position_graph.dot", dot.PositionGraph(posgraph.Build(ex2), "figure2"))
	write("figure3_pnode_graph.dot", dot.PNodeGraph(pnode.Build(ex2), "figure3"))

	// The unbounded chain: rewriting q() :- r("a",X) over Example 2 keeps
	// producing strictly larger CQs; show the growth per budget.
	fmt.Println("\nExample 2 rewriting growth for q() :- r(\"a\", X):")
	pq := parser.MustParseQuery(`q() :- r("a", X) .`)
	q := query.MustNew(pq.Head, pq.Body)
	for _, budget := range []int{10, 20, 40, 80} {
		res := rewrite.Rewrite(q, ex2, rewrite.Options{MaxCQs: budget})
		fmt.Printf("  budget %3d CQs -> complete=%-5v largest CQ %2d atoms, depth %d\n",
			budget, res.Complete, res.LargestCQ, res.MaxDepthSeen)
	}
	fmt.Println("\nThe P-node graph predicts this divergence:")
	res := pnode.Check(ex2)
	for _, v := range res.Violations {
		fmt.Println("  ", v)
	}
}

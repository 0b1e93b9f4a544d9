// Quickstart: load an ontology (TGDs + facts), classify it, and answer a
// conjunctive query under certain-answer semantics — the end-to-end OBDA
// loop of the paper in a dozen lines.
package main

import (
	"context"
	"fmt"
	"log"

	repro "repro"
)

func main() {
	ctx := context.Background()
	ont, err := repro.Parse(`
% intensional layer: TGDs
student(X) -> person(X) .
teacher(X) -> person(X) .
person(X)  -> hasParent(X, Y) .

% extensional layer: facts
student(alice) .
teacher(bob) .
hasParent(alice, carol) .
`)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Classify: which TGD classes does the rule set fall into, and is
	//    query answering first-order rewritable?
	report := ont.Classify()
	fmt.Println("classification:")
	fmt.Print(report)

	// 2. Rewrite: compile a query to a union of conjunctive queries
	//    evaluated directly over the database.
	rw, err := ont.RewriteCtx(ctx, `q(X) :- person(X) .`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrewriting of q(X) :- person(X):")
	fmt.Println(rw)

	// 3. Answer: certain answers (mode chosen automatically).
	ans, err := ont.AnswerCtx(ctx, `q(X) :- hasParent(X, P) .`, repro.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwho certainly has a parent:")
	fmt.Println(ans)
}

// Package mutpipeline defines an analyzer that keeps the one published
// pointer of an Ontology inside the one function that publishes.
//
// Everything a reader observes hangs off a single immutable snapshot behind
// Ontology.snap; a generation is complete and ordered exactly because
// Ontology.publish is the only code that installs one (newOntology installs
// generation zero). A well-meaning helper that does `o.snap.Store(...)` on
// its own silently forfeits the writer-lock protocol and the fresh
// classification a rule change needs.
//
// The analyzer flags any write call (Store, Swap, CompareAndSwap) on the
// snap field of a type named Ontology when the enclosing function is neither
// publish nor newOntology. Loads are always fine.
package mutpipeline

import (
	"go/ast"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "mutpipeline",
	Doc:  "restrict stores to Ontology.snap to publish and newOntology",
	Run:  run,
}

// publishers are the functions allowed to store the published pointer.
var publishers = map[string]bool{"publish": true, "newOntology": true}

// writeMethods are the atomic methods that publish.
var writeMethods = map[string]bool{"Store": true, "Swap": true, "CompareAndSwap": true}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || publishers[fn.Name.Name] {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		recv, method, ok := analysis.SelectorCall(expr)
		if !ok || !writeMethods[method] {
			return true
		}
		sel, ok := recv.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "snap" {
			return true
		}
		base, ok := pass.TypesInfo.Types[sel.X]
		if !ok || !analysis.IsTypeNamed(base.Type, "Ontology") {
			return true
		}
		pass.Reportf(n.Pos(), "snap.%s outside publish (in %s); hand the next snapshot to Ontology.publish", method, fn.Name.Name)
		return true
	})
}

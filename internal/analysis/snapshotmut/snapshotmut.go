// Package snapshotmut defines an analyzer enforcing the copy-on-write
// snapshot discipline from PRs 3 and 5.
//
// Readers obtain state exclusively through atomic.Pointer.Load() — the one
// published snapshot carrying the rule set, the base data and the
// materialization — and everything reachable from it is immutable: the
// storage layer freezes published instances, so a write panics at run time,
// and this analyzer refuses it at vet time. A writer must first launder the
// value through Clone()/ExtendClone() (or build a fresh one) before
// mutating. A single in-place Insert on a loaded snapshot is a data race
// against every concurrent reader and corrupts history for every future
// copy-on-write extension sharing the relation.
//
// The analyzer runs an intra-procedural taint pass per function:
//
//   - seeds: the result of any `.Load()` call on a sync/atomic Pointer, and
//     of any call returning a pointer to a type named snapshot;
//   - propagation: through assignments to local variables and through
//     field selection (x tainted ⇒ x.f tainted);
//   - laundering: `Clone()` and `ExtendClone()` results are fresh.
//
// It flags, on tainted values of the snapshot-carrying types
// (storage.Instance, storage.Relation, dependency.Set):
//
//   - calls to their mutating methods (Insert, InsertAtom, Remove, AddNew,
//     Append, LoadCSV);
//   - assignments through their fields (e.g. `set.Rules = ...`).
package snapshotmut

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "snapshotmut",
	Doc:  "flag in-place mutation of snapshots obtained from atomic.Pointer.Load (copy-on-write discipline)",
	Run:  run,
}

// mutators lists the in-place mutating methods per snapshot-carrying type,
// keyed by package name then type name (package-name matching keeps the
// analyzer honest over both the real packages and fixtures importing them).
var mutators = map[[2]string]map[string]bool{
	{"storage", "Instance"}: {"Insert": true, "InsertAtom": true, "Remove": true, "AddNew": true, "Append": true, "LoadCSV": true},
	{"storage", "Relation"}: {"Insert": true, "Remove": true},
	// dependency.Set mutates only through exported fields (Rules), caught
	// by the field-write rule; its methods (WithRule, WithoutRule) are
	// persistent-style and return fresh sets.
	{"dependency", "Set"}: {},
}

// launderMethods return a freshly owned value even when called on a
// snapshot; taint does not flow through them.
var launderMethods = map[string]bool{"Clone": true, "ExtendClone": true}

// snapshotType resolves a type to its mutators key when it is one of the
// snapshot-carrying types.
func snapshotType(t types.Type) ([2]string, bool) {
	n := analysis.NamedOf(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return [2]string{}, false
	}
	key := [2]string{n.Obj().Pkg().Name(), n.Obj().Name()}
	_, ok := mutators[key]
	return key, ok
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	tainted := make(map[types.Object]bool)

	var exprTainted func(e ast.Expr) bool
	exprTainted = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			if obj := info.ObjectOf(e); obj != nil {
				return tainted[obj]
			}
		case *ast.SelectorExpr:
			// Field access on a snapshot keeps pointing into the snapshot.
			// Package-qualified identifiers are never tainted.
			if _, ok := info.Uses[e.Sel].(*types.Var); ok {
				return exprTainted(e.X)
			}
		case *ast.CallExpr:
			if analysis.IsTypeNamed(info.TypeOf(e), "snapshot") {
				return true
			}
			if recv, method, ok := analysis.SelectorCall(e); ok {
				if launderMethods[method] {
					return false
				}
				if method == "Load" && analysis.IsNamed(info.TypeOf(recv), "atomic", "Pointer") {
					return true
				}
			}
		case *ast.ParenExpr:
			return exprTainted(e.X)
		case *ast.StarExpr:
			return exprTainted(e.X)
		case *ast.IndexExpr:
			return exprTainted(e.X)
		case *ast.TypeAssertExpr:
			return exprTainted(e.X)
		}
		return false
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Field writes through tainted snapshot values.
			for _, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || !exprTainted(sel.X) {
					continue
				}
				if key, ok := snapshotType(info.TypeOf(sel.X)); ok {
					pass.Reportf(lhs.Pos(),
						"write to field %s of a %s.%s loaded from an atomic.Pointer; Clone/ExtendClone it first (copy-on-write)",
						sel.Sel.Name, key[0], key[1])
				}
			}
			// Taint propagation through simple assignments.
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if obj := info.ObjectOf(id); obj != nil && exprTainted(n.Rhs[i]) {
						tainted[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			recv, method, ok := analysis.SelectorCall(n)
			if !ok || !exprTainted(recv) {
				return true
			}
			if key, isSnap := snapshotType(info.TypeOf(recv)); isSnap && mutators[key][method] {
				pass.Reportf(n.Pos(),
					"%s.%s.%s on a snapshot loaded from an atomic.Pointer; Clone/ExtendClone it first (copy-on-write)",
					key[0], key[1], method)
			}
		}
		return true
	})
}

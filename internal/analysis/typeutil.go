package analysis

import (
	"go/ast"
	"go/types"
)

// Deref removes one level of pointer indirection, if any.
func Deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// NamedOf returns the named type behind t (through one pointer level and
// aliases), or nil.
func NamedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = Deref(types.Unalias(t))
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// IsNamed reports whether t (through one pointer level) is the named type
// pkgName.typeName. Matching is by package *name* rather than full import
// path so that analyzers behave identically over the real repro packages
// and over analysistest fixtures that import them — and generic
// instantiations (atomic.Pointer[T]) match their origin name.
func IsNamed(t types.Type, pkgName, typeName string) bool {
	n := NamedOf(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Name() == pkgName && n.Obj().Name() == typeName
}

// IsTypeNamed reports whether t (through one pointer level) is a named type
// with the given name, regardless of package. Analyzers that key on the
// engine's own type names (Ontology) use this so analysistest fixtures can
// declare structurally equivalent stand-ins.
func IsTypeNamed(t types.Type, name string) bool {
	n := NamedOf(t)
	return n != nil && n.Obj() != nil && n.Obj().Name() == name
}

// SelectorCall matches expr against the shape recv.Method(...) and returns
// the receiver expression and method name; ok is false otherwise.
func SelectorCall(expr ast.Expr) (recv ast.Expr, method string, ok bool) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

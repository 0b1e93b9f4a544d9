package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestNormalizePkgPath(t *testing.T) {
	cases := map[string]string{
		"repro/internal/chase":                             "repro/internal/chase",
		"repro/internal/chase [repro/internal/chase.test]": "repro/internal/chase",
		"repro/internal/chase_test":                        "repro/internal/chase",
		"repro/internal/chase.test":                        "repro/internal/chase.test",
	}
	for in, want := range cases {
		if got := NormalizePkgPath(in); got != want {
			t.Errorf("NormalizePkgPath(%q) = %q, want %q", in, got, want)
		}
	}
}

const suppressionSrc = `package p

func f() {
	//repro:allow ctxpoll bounded by construction
	spinA()
	spinB() //repro:allow hotalloc lazy one-time init
	spinC()
	//repro:allow mutpipeline
	spinD()
}

func spinA() {}
func spinB() {}
func spinC() {}
func spinD() {}
`

func TestSuppressions(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", suppressionSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	sup := CollectSuppressions(fset, []*ast.File{f})

	pos := map[string]token.Pos{}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				pos[id.Name] = call.Pos()
			}
		}
		return true
	})

	cases := []struct {
		fn       string
		analyzer string
		want     bool
	}{
		{"spinA", "ctxpoll", true},      // directive on the line above
		{"spinA", "hotalloc", false},    // wrong analyzer
		{"spinB", "hotalloc", true},     // trailing directive on the same line
		{"spinC", "hotalloc", true},     // a directive reaches exactly one line down
		{"spinC", "ctxpoll", false},     // ...for its named analyzer only
		{"spinD", "mutpipeline", false}, // reason is mandatory: bare directive ignored
	}
	for _, c := range cases {
		if got := sup.Allows(fset, c.analyzer, pos[c.fn]); got != c.want {
			t.Errorf("Allows(%s at %s) = %v, want %v", c.analyzer, c.fn, got, c.want)
		}
	}
}

const directiveSrc = `package p

// step does a thing.
//
//repro:hotpath
func step() {}

// helper is ordinary.
func helper() {}
`

func TestHasDirective(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			got[fn.Name.Name] = HasDirective(fn.Doc, "//repro:hotpath")
		}
	}
	if !got["step"] || got["helper"] {
		t.Fatalf("HasDirective: got %v, want step only", got)
	}
}

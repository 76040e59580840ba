package flow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/flow"
)

const src = `package p

//vodlint:hotpath
func Root() {
	work := func(n int) { Leaf(n) }
	work(1)
}

func Leaf(n int) {}

func Unreached() {}
`

func build(t *testing.T) (*flow.Graph, *lint.Pass) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	pass := &lint.Pass{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, TypesInfo: info}
	return flow.New(pass), pass
}

func fn(t *testing.T, pass *lint.Pass, name string) *types.Func {
	t.Helper()
	obj, ok := pass.Pkg.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("no function %s", name)
	}
	return obj
}

func TestAnnotatedAndReachability(t *testing.T) {
	g, pass := build(t)
	roots := g.Annotated("hotpath")
	if len(roots) != 1 || roots[0].Name() != "Root" {
		t.Fatalf("Annotated(hotpath) = %v, want [Root]", roots)
	}
	reach := g.Reachable(roots)
	leaf := g.NodeOf(fn(t, pass, "Leaf"))
	if leaf == nil {
		t.Fatal("Leaf has no node")
	}
	if _, ok := reach[leaf]; !ok {
		t.Fatal("Leaf not reachable from Root through the closure variable")
	}
	if unreached := g.NodeOf(fn(t, pass, "Unreached")); unreached == nil {
		t.Fatal("Unreached has no node")
	} else if _, ok := reach[unreached]; ok {
		t.Fatal("Unreached should not be reachable from Root")
	}
	trace := g.Trace(reach, leaf)
	if !strings.Contains(trace, "Root") || !strings.Contains(trace, "Leaf") {
		t.Fatalf("Trace(Leaf) = %q, want Root ... Leaf provenance", trace)
	}
}

package lint

import (
	"go/ast"
	"go/types"
)

// CalleePkgFunc resolves a call to a package-level function and returns
// the defining package path and function name. It returns "" for method
// calls, calls of function-typed variables, conversions and builtins —
// so rand.Intn (package global) and rng.Intn (method on *rand.Rand)
// are distinguished reliably even under import aliasing or dot-imports.
func CalleePkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return "", ""
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// RootIdent returns the identifier naming an expression's value: x for
// x, the field y for x.y, the element name for x[i], and the converted
// operand for conversions like float64(x).
func RootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			return e.Sel
		case *ast.IndexExpr:
			expr = e.X
		case *ast.CallExpr:
			if len(e.Args) == 1 {
				expr = e.Args[0] // conversions like float64(x)
				continue
			}
			return nil
		default:
			return nil
		}
	}
}

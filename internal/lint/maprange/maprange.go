// Package maprange flags order-sensitive accumulation inside map
// iteration.
//
// Go randomises map iteration order on purpose, so ranging over a map
// while appending to a slice, concatenating report text, writing to an
// output, or summing floats (float addition is not associative) yields
// a different result on every run. The safe idiom is to collect the
// keys, sort them, then iterate the sorted slice: appending keys into a
// slice that is sorted later in the same function is recognised as that
// pattern and not reported.
package maprange

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Analyzer flags range-over-map loops whose bodies accumulate
// order-sensitive state without a subsequent key sort.
var Analyzer = &lint.Analyzer{
	Name: "maprange",
	Doc: "flag order-sensitive accumulation (append/output/float or string sum) " +
		"inside range-over-map loops; sort the keys first",
	Run: run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		bodies := functionBodies(f)
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.TypesInfo.TypeOf(rng.X); t == nil || !isMap(t) {
				return true
			}
			checkRange(pass, rng, enclosing(bodies, rng))
			return true
		})
	}
	return nil
}

func isMap(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Map:
		return true
	case *types.Interface:
		// A type parameter's underlying type is its constraint
		// interface: a generic key-sorting helper over
		// [M ~map[string]float64] ranges over maps too.
		return typeSetIsMaps(u)
	}
	return false
}

// typeSetIsMaps reports whether the interface's type set is non-empty
// and consists solely of map types.
func typeSetIsMaps(iface *types.Interface) bool {
	found := false
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		switch et := iface.EmbeddedType(i).(type) {
		case *types.Union:
			for j := 0; j < et.Len(); j++ {
				if _, ok := et.Term(j).Type().Underlying().(*types.Map); !ok {
					return false
				}
				found = true
			}
		case *types.Interface:
			if !typeSetIsMaps(et) {
				return false
			}
			found = true
		default:
			if _, ok := et.Underlying().(*types.Map); !ok {
				return false
			}
			found = true
		}
	}
	return found
}

// functionBodies collects every function and closure body in the file.
func functionBodies(f *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, fn.Body)
			}
		case *ast.FuncLit:
			out = append(out, fn.Body)
		}
		return true
	})
	return out
}

// enclosing returns the smallest collected body containing the node.
func enclosing(bodies []*ast.BlockStmt, n ast.Node) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, b := range bodies {
		if b.Pos() <= n.Pos() && n.End() <= b.End() {
			if best == nil || b.Pos() > best.Pos() {
				best = b
			}
		}
	}
	return best
}

// checkRange inspects one map-range body for order-sensitive effects.
func checkRange(pass *lint.Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt) {
	info := pass.TypesInfo
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested closures are their own scope
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, rng, fnBody, st)
		case *ast.CallExpr:
			if name := outputCall(info, st); name != "" {
				pass.Reportf(st.Pos(),
					"%s inside range over map writes output in map order, which is randomised; iterate sorted keys instead",
					name)
			}
		}
		return true
	})
}

// checkAssign flags appends and float/string accumulation into
// variables that outlive the loop.
func checkAssign(pass *lint.Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt, st *ast.AssignStmt) {
	info := pass.TypesInfo
	switch st.Tok {
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range st.Rhs {
			if i >= len(st.Lhs) {
				break
			}
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(info, call) {
				continue
			}
			id, obj := outerTarget(pass, st.Lhs[i], rng)
			if id == nil {
				continue
			}
			if sortedAfter(pass, fnBody, rng, obj) {
				continue // collect-then-sort: the safe idiom
			}
			pass.Reportf(st.Pos(),
				"append to %q inside range over map records randomised map order; collect the keys, sort them, then range over the sorted slice",
				id.Name)
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		id, _ := outerTarget(pass, st.Lhs[0], rng)
		if id == nil {
			return
		}
		t := info.TypeOf(st.Lhs[0])
		if t == nil {
			return
		}
		b, ok := t.Underlying().(*types.Basic)
		if !ok {
			return
		}
		switch {
		case b.Info()&types.IsFloat != 0:
			pass.Reportf(st.Pos(),
				"float accumulation into %q inside range over map depends on iteration order (float addition is not associative); sum over sorted keys",
				id.Name)
		case b.Info()&types.IsString != 0 && st.Tok == token.ADD_ASSIGN:
			pass.Reportf(st.Pos(),
				"string concatenation into %q inside range over map produces randomised output order; iterate sorted keys",
				id.Name)
		}
	}
}

// outerTarget resolves an assignment target to an identifier declared
// outside the range statement; accumulation into loop-local state or
// into map elements (out[k] += v) is order-insensitive and returns nil.
func outerTarget(pass *lint.Pass, lhs ast.Expr, rng *ast.RangeStmt) (*ast.Ident, types.Object) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.ObjectOf(e)
		if obj == nil || (rng.Pos() <= obj.Pos() && obj.Pos() <= rng.End()) {
			return nil, nil
		}
		return e, obj
	case *ast.SelectorExpr:
		// x.f += v mutates state that outlives the loop — unless x
		// itself is a loop-local (r := ...; r.Segments = append(...)
		// builds one value per key, which is order-insensitive).
		base := ast.Unparen(e.X)
		for {
			if s, ok := base.(*ast.SelectorExpr); ok {
				base = ast.Unparen(s.X)
				continue
			}
			break
		}
		if id, ok := base.(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil &&
				rng.Pos() <= obj.Pos() && obj.Pos() <= rng.End() {
				return nil, nil
			}
		}
		sel := pass.TypesInfo.ObjectOf(e.Sel)
		if sel == nil {
			return nil, nil
		}
		return e.Sel, sel
	default:
		// Index expressions (map/slice element writes) key the update by
		// the element, not by arrival order.
		return nil, nil
	}
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// outputCall returns a display name if the call writes to an output
// stream or builder: fmt.Print*/Fprint* and Write* methods.
func outputCall(info *types.Info, call *ast.CallExpr) string {
	if pkg, name := lint.CalleePkgFunc(info, call); pkg == "fmt" &&
		(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
		return "fmt." + name
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
			strings.HasPrefix(fn.Name(), "Write") {
			return fn.Name()
		}
	}
	return ""
}

// sortedAfter reports whether the slice object is passed to a sort
// function after the loop, inside the same function body.
func sortedAfter(pass *lint.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	if fnBody == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		pkg, name := lint.CalleePkgFunc(pass.TypesInfo, call)
		isSort := (pkg == "sort" && (name == "Strings" || name == "Ints" || name == "Float64s" ||
			name == "Slice" || name == "SliceStable" || name == "Sort" || name == "Stable")) ||
			(pkg == "slices" && strings.HasPrefix(name, "Sort"))
		if !isSort {
			return true
		}
		if root := lint.RootIdent(call.Args[0]); root != nil && pass.TypesInfo.ObjectOf(root) == obj {
			found = true
		}
		return true
	})
	return found
}

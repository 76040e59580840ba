// Package flow is the call-graph layer under the hotalloc and goctx
// analyzers. It builds, per type-checked package, a lightweight call
// graph over declared functions and function literals, resolves calls
// through single-assignment closure variables, and indexes
// //vodlint:<name> function annotations (hotpath).
//
// The graph is deliberately intra-package: a call it cannot resolve
// (dynamic, cross-package) has no edge, which keeps the analyzers
// built on it cheap enough to run on every package of the module on
// each lint.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// A Node is one analyzable function body: a declared function or
// method, or a function literal.
type Node struct {
	// Fn is the declared function object; nil for function literals.
	Fn *types.Func
	// Decl is the declaration; nil for function literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Encl is the node lexically containing a literal; nil for
	// declared functions.
	Encl *Node
	// Calls are the static intra-package callees plus directly
	// contained function literals, in source order.
	Calls []*Node

	directives map[string]bool
}

// Body returns the node's statement block.
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the node's declaration position.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Name returns a display name: Recv.Method for methods, the function
// name for functions, and "func literal in X" for literals.
func (n *Node) Name() string {
	if n.Fn != nil {
		if sig, ok := n.Fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if named := namedOf(sig.Recv().Type()); named != nil {
				return named.Obj().Name() + "." + n.Fn.Name()
			}
		}
		return n.Fn.Name()
	}
	if n.Encl != nil {
		return "func literal in " + n.Encl.Name()
	}
	return "func literal"
}

// A Graph holds one package's function nodes and resolution tables.
type Graph struct {
	// Nodes lists every function body in source order.
	Nodes []*Node

	info   *types.Info
	fset   *token.FileSet
	byObj  map[*types.Func]*Node
	byLit  map[*ast.FuncLit]*Node
	parent map[ast.Node]ast.Node
	// closure maps single-assignment function-typed variables to the
	// literal they hold, so `work := func(...){...}; work(x)` resolves.
	closure map[types.Object]*ast.FuncLit
}

// New builds the call graph for one analyzer pass.
func New(pass *lint.Pass) *Graph {
	g := &Graph{
		info:    pass.TypesInfo,
		fset:    pass.Fset,
		byObj:   map[*types.Func]*Node{},
		byLit:   map[*ast.FuncLit]*Node{},
		parent:  map[ast.Node]ast.Node{},
		closure: map[types.Object]*ast.FuncLit{},
	}
	// Directive lines per file: //vodlint:<name> on the line of or
	// directly above a function marks it; doc comments also count.
	directives := map[string]map[int][]string{} // file -> line -> names
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseAnnotation(c.Text)
				if !ok {
					continue
				}
				pos := g.fset.Position(c.Slash)
				m := directives[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					directives[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], name)
			}
		}
	}
	for _, f := range pass.Files {
		g.collect(f, directives)
	}
	for _, n := range g.Nodes {
		g.link(n)
	}
	return g
}

// parseAnnotation extracts the directive name from a "//vodlint:name"
// comment; allow directives are the suppression mechanism, not a
// function annotation, and return false.
func parseAnnotation(text string) (string, bool) {
	rest, ok := strings.CutPrefix(text, "//vodlint:")
	if !ok {
		return "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 || fields[0] == "allow" {
		return "", false
	}
	return fields[0], true
}

// collect walks one file recording nodes, the parent map, and
// single-assignment closure variables.
func (g *Graph) collect(f *ast.File, directives map[string]map[int][]string) {
	var stack []ast.Node
	reassigned := map[types.Object]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			g.parent[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil {
				return true
			}
			node := &Node{Decl: fn}
			if obj, ok := g.info.Defs[fn.Name].(*types.Func); ok {
				node.Fn = obj
				g.byObj[obj] = node
			}
			g.annotate(node, fn.Doc, directives)
			g.Nodes = append(g.Nodes, node)
		case *ast.FuncLit:
			node := &Node{Lit: fn}
			g.annotate(node, nil, directives)
			g.Nodes = append(g.Nodes, node)
			g.byLit[fn] = node
		case *ast.AssignStmt:
			// Track work := func(...){...} so calls through the
			// variable resolve, but only while singly assigned.
			for i, lhs := range fn.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := g.info.ObjectOf(id)
				if obj == nil {
					continue
				}
				if fn.Tok == token.DEFINE && i < len(fn.Rhs) {
					if lit, ok := ast.Unparen(fn.Rhs[i]).(*ast.FuncLit); ok && !reassigned[obj] {
						g.closure[obj] = lit
						continue
					}
				}
				reassigned[obj] = true
				delete(g.closure, obj)
			}
		}
		return true
	})
}

// annotate records the node's //vodlint:<name> directives: any in the
// doc comment, on the declaration line, or on the line directly above.
func (g *Graph) annotate(node *Node, doc *ast.CommentGroup, directives map[string]map[int][]string) {
	node.directives = map[string]bool{}
	if doc != nil {
		for _, c := range doc.List {
			if name, ok := parseAnnotation(c.Text); ok {
				node.directives[name] = true
			}
		}
	}
	pos := g.fset.Position(node.Pos())
	if m := directives[pos.Filename]; m != nil {
		for _, name := range m[pos.Line] {
			node.directives[name] = true
		}
		for _, name := range m[pos.Line-1] {
			node.directives[name] = true
		}
	}
}

// link attaches the node's enclosing node (for literals) and its
// outgoing edges: contained literals and static same-package calls.
func (g *Graph) link(n *Node) {
	if n.Lit != nil {
		for p := g.parent[n.Lit]; p != nil; p = g.parent[p] {
			switch outer := p.(type) {
			case *ast.FuncDecl:
				n.Encl = g.declNode(outer)
			case *ast.FuncLit:
				n.Encl = g.byLit[outer]
			}
			if n.Encl != nil {
				break
			}
		}
	}
	seen := map[*Node]bool{}
	WalkOwn(n, func(in ast.Node) bool {
		switch e := in.(type) {
		case *ast.FuncLit:
			if lit := g.byLit[e]; lit != nil && !seen[lit] {
				seen[lit] = true
				n.Calls = append(n.Calls, lit)
			}
			return false // the literal walks its own body
		case *ast.CallExpr:
			if callee := g.CalleeNode(e); callee != nil && callee != n && !seen[callee] {
				seen[callee] = true
				n.Calls = append(n.Calls, callee)
			}
		}
		return true
	})
}

func (g *Graph) declNode(decl *ast.FuncDecl) *Node {
	if obj, ok := g.info.Defs[decl.Name].(*types.Func); ok {
		return g.byObj[obj]
	}
	return nil
}

// WalkOwn visits the node's own statements in source order, stopping
// at nested function literals (they are their own nodes). The node's
// literal or declaration itself is not visited.
func WalkOwn(n *Node, visit func(ast.Node) bool) {
	if n.Body() == nil {
		return
	}
	ast.Inspect(n.Body(), func(in ast.Node) bool {
		if in == nil {
			return true
		}
		if lit, ok := in.(*ast.FuncLit); ok && lit != n.Lit {
			if !visit(in) {
				return false
			}
			return false
		}
		return visit(in)
	})
}

// Parent returns the syntactic parent of a node within its file.
func (g *Graph) Parent(n ast.Node) ast.Node { return g.parent[n] }

// NodeOf returns the graph node declaring fn, or nil for functions of
// other packages.
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.byObj[fn] }

// staticCallee resolves a call to the declared function or method it
// invokes, or nil for builtins, conversions, and dynamic calls.
func (g *Graph) staticCallee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := g.info.Uses[id].(*types.Func)
	return fn
}

// CalleeNode resolves a call to a same-package node: a declared
// function or method, or a literal held by a single-assignment
// variable (`work := func(...){...}; work(x)`).
func (g *Graph) CalleeNode(call *ast.CallExpr) *Node {
	if fn := g.staticCallee(call); fn != nil {
		return g.byObj[fn]
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := g.info.ObjectOf(id); obj != nil {
			if lit, ok := g.closure[obj]; ok {
				return g.byLit[lit]
			}
		}
	}
	return nil
}

// Annotated returns the nodes carrying a //vodlint:<name> directive,
// in source order.
func (g *Graph) Annotated(name string) []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.directives[name] {
			out = append(out, n)
		}
	}
	return out
}

// Reachable returns every node reachable from the roots through
// static calls and literal containment, mapped to its BFS predecessor
// (roots map to nil) so analyzers can print a provenance trace.
func (g *Graph) Reachable(roots []*Node) map[*Node]*Node {
	pred := map[*Node]*Node{}
	queue := make([]*Node, 0, len(roots))
	for _, r := range roots {
		if _, ok := pred[r]; !ok {
			pred[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Calls {
			if _, ok := pred[c]; !ok {
				pred[c] = n
				queue = append(queue, c)
			}
		}
	}
	return pred
}

// Trace renders the call chain from a reachability root down to n,
// e.g. "Run → onComplete → finishSegment".
func (g *Graph) Trace(pred map[*Node]*Node, n *Node) string {
	var names []string
	for at := n; at != nil; at = pred[at] {
		names = append(names, at.Name())
		if len(names) > 8 { // cycles cannot occur in a pred tree; cap for readability
			break
		}
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

package lint_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analyzers"
)

// TestRepoLintClean runs the full analyzer suite plus the stale-
// suppression audit over this module, through the lint.CheckPackages
// call `make lint` makes after its load, and asserts zero unsuppressed
// findings and zero dead //vodlint:allow directives. Plain `go test ./...` (and the
// -race tier) therefore carries the lint verdict.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-module lint load in -short mode")
	}
	_, pkgs := loadModule(t)
	found, err := lint.CheckPackages(pkgs, analyzers.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range found {
		t.Errorf("%s", d)
	}
}

// TestNoMathMinMax keeps math.Min and math.Max out of the simulation
// packages' production code: the builtins compile inline, where the math
// functions are an out-of-line call on every playback step. The two give
// the same bits on ordinary values, both signed zeros in either order,
// the infinities, and a NaN against a finite value, a NaN or the
// infinity that loses. They part only on a NaN against the infinity that
// wins: math.Min(-Inf, NaN) and math.Max(NaN, +Inf) return the infinity,
// the builtins a NaN. A NaN in a simulation is a bug whatever min and
// max then do with it.
func TestNoMathMinMax(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-module load in -short mode")
	}
	root, pkgs := loadModule(t)
	gated := map[string]bool{}
	for _, p := range []string{"player", "simnet", "netem", "fleet", "cdn", "adaptation"} {
		gated[filepath.Join(root, "internal", p)] = true
	}
	checked := 0
	for _, pkg := range pkgs {
		if pkg.TestUnit || !gated[pkg.Dir] {
			continue
		}
		checked++
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "math" && (fn.Name() == "Min" || fn.Name() == "Max") {
				t.Errorf("%s: math.%s in a simulation package; use the builtin %s", pkg.Fset.Position(id.Pos()), fn.Name(), strings.ToLower(fn.Name()))
			}
		}
	}
	if checked != len(gated) {
		t.Fatalf("checked %d of the %d gated packages", checked, len(gated))
	}
}

// reachExceptions names the declarations under internal/ that no
// production file reaches but that stay, each with the reason. An entry
// that production now reaches, or that names nothing, fails
// TestProductionCodeIsReached just as a stale //vodlint:allow fails the
// audit.
var reachExceptions = map[string]string{
	// bench/ drives these; they go when its probes become in-package
	// benchmarks (ROADMAP item 18).
	"netem.Profile.Cursor":        "bench/ probe of the sample cursor",
	"netem.Cursor.ValueNext":      "bench/ probe of the sample cursor",
	"player.Cohort.SetAccessLink": "bench/ cohort probe",
	"simnet.Network.VTimeActive":  "bench/ simnet probes check which loop runs",
	"simnet.Network.CellActive":   "bench/ simnet probes check which loop runs",
	"expcache.Cache.Reset":        "bench/ cold workloads drop the origins and zero the counters between ops",
	"fleet.Workload":              "bench/ workload-draw probe",
	"fleet.Run":                   "bench/ fleet workloads and probe",
	"fleet.Config.Normalized":     "bench/ probes normalize their fleet config",
	"cdn.Cell.NewClient":          "bench/ resolve probe",

	// Test helpers that other packages' tests, or a package's external
	// tests, call; one that only its own package's tests call lives in
	// a _test.go file instead.
	"player.Cohort.PeakLive": "player and fleet tests bound a cohort's live members",
	"lint/linttest.Run":      "every analyzer's test runs its testdata through it",
	"lint/flow.Graph.NodeOf": "flow's external tests look up a function's node",
}

// TestProductionCodeIsReached holds internal/ to what production runs:
// every package-level func, method, type, var and const, and every
// interface method, declared in a non-test file under internal/ must be
// referenced by a non-test file outside bench/ (cmd/, examples/ and the
// root facade count) and outside its own declaration; a method's
// receiver is not a reference to its type. A concrete method
// is also reached when its type implements an interface declaring it
// that comes from outside the module (fmt.Stringer, sort.Interface, …)
// or from the module with that method referenced in production.
func TestProductionCodeIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-module load in -short mode")
	}
	root, pkgs := loadModule(t)
	benchDir := filepath.Join(root, "bench")
	internalDir := filepath.Join(root, "internal")

	type decl struct {
		obj      types.Object
		name     string    // package path under internal/, then the declared name
		from, to token.Pos // the declaration's own extent
		pos      token.Position
	}
	var decls []*decl
	refs := map[types.Object][]token.Pos{}
	var prod []*lint.Package
	inModule := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		if !pkg.TestUnit && pkg.Dir != benchDir {
			prod = append(prod, pkg)
			inModule[pkg.Types] = true
		}
	}
	// Interfaces from outside the module: a method one of them declares
	// may be called by code that never names it (fmt calls String).
	external := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			walk(imp)
		}
		if inModule[p] {
			return
		}
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					external = append(external, it)
				}
			}
		}
	}

	for _, pkg := range prod {
		walk(pkg.Types)
		// A method's receiver names its type without using it: a type
		// that only tests construct stays unreached however many of its
		// methods an interface reaches.
		recvs := map[*ast.Ident]bool{}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recvs[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range pkg.Info.Uses {
			if !recvs[id] {
				obj = origin(obj)
				refs[obj] = append(refs[obj], id.Pos())
			}
		}
		rel, err := filepath.Rel(internalDir, pkg.Dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		add := func(id *ast.Ident, node ast.Node, name string) {
			if id.Name != "_" {
				decls = append(decls, &decl{obj: pkg.Info.Defs[id], name: filepath.ToSlash(rel) + "." + name,
					from: node.Pos(), to: node.End(), pos: pkg.Fset.Position(id.Pos())})
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					switch {
					case d.Recv != nil:
						add(d.Name, d, recvName(d.Recv.List[0].Type)+"."+d.Name.Name)
					case d.Name.Name != "init":
						add(d.Name, d, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s, s.Name.Name)
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, n := range m.Names {
										add(n, m, s.Name.Name+"."+n.Name)
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(n, s, n.Name)
							}
						}
					}
				}
			}
		}
	}

	// Referenced from outside its own declaration; and the module's
	// interfaces, whose called methods reach their implementations.
	called := map[types.Object]bool{}
	var module []*types.Interface
	for _, d := range decls {
		for _, p := range refs[d.obj] {
			if p < d.from || p >= d.to {
				called[d.obj] = true
				break
			}
		}
		if tn, ok := d.obj.(*types.TypeName); ok && types.IsInterface(tn.Type()) {
			module = append(module, tn.Type().Underlying().(*types.Interface))
		}
	}
	viaInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		T := recv.Type()
		if p, ok := T.(*types.Pointer); ok {
			T = p.Elem()
		}
		if types.IsInterface(T) {
			return false
		}
		implements := func(it *types.Interface) bool {
			return types.Implements(T, it) || types.Implements(types.NewPointer(T), it)
		}
		for _, it := range external {
			if hasMethod(it, fn.Name(), nil) && implements(it) {
				return true
			}
		}
		for _, it := range module {
			if hasMethod(it, fn.Name(), called) && implements(it) {
				return true
			}
		}
		return false
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		reached := called[d.obj]
		if fn, ok := d.obj.(*types.Func); ok && !reached {
			reached = viaInterface(fn)
		}
		_, excepted := reachExceptions[d.name]
		switch {
		case reached && excepted:
			t.Errorf("%s: %s is listed in reachExceptions but production reaches it; remove the entry", d.pos, d.name)
		case !reached && !excepted:
			t.Errorf("%s: %s is reached by no production code: delete it, move it into a _test.go file, or list it in reachExceptions with the reason", d.pos, d.name)
		}
	}
	entries := exceptionEntries(t, pkgs)
	var stale []string
	for name := range reachExceptions {
		if !declared[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("%s: reachExceptions lists %s, which is declared nowhere under internal/; remove the entry", entries[name], name)
	}
}

// origin maps an instantiated generic method to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// recvName is the receiver's type name without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			panic(fmt.Sprintf("receiver type %T", e))
		}
	}
}

// hasMethod reports whether the interface declares a method of that
// name, and, with called non-nil, whether production calls it.
func hasMethod(it *types.Interface, name string, called map[types.Object]bool) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if m := it.Method(i); m.Name() == name {
			return called == nil || called[m]
		}
	}
	return false
}

// exceptionEntries locates each key of the reachExceptions literal in
// this file, so a stale entry is reported at its own line.
func exceptionEntries(t *testing.T, pkgs []*lint.Package) map[string]token.Position {
	at := map[string]token.Position{}
	for _, pkg := range pkgs {
		if !pkg.TestUnit {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				vs, ok := n.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "reachExceptions" || len(vs.Values) != 1 {
					return true
				}
				for _, el := range vs.Values[0].(*ast.CompositeLit).Elts {
					lit := el.(*ast.KeyValueExpr).Key.(*ast.BasicLit)
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					at[name] = pkg.Fset.Position(lit.Pos())
				}
				return false
			})
		}
	}
	return at
}

var (
	loadOnce   sync.Once
	loadedRoot string
	loaded     []*lint.Package
	loadErr    error
)

// loadModule loads this module once per test binary for every
// whole-module check.
func loadModule(t *testing.T) (string, []*lint.Package) {
	loadOnce.Do(func() {
		loadedRoot, loadErr = moduleRoot()
		if loadErr == nil {
			loaded, loadErr = lint.Load(loadedRoot)
		}
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loadedRoot, loaded
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}

// Package simclock forbids wall-clock reads inside simulation packages.
//
// The virtual-time engine is only deterministic if simulated durations
// come from the simulation itself; a single time.Now() inside the
// player, the network emulator or an experiment silently couples
// results to the host's scheduler. Every package under internal/ other
// than the lint tooling is simulation; the cmd binaries, examples and
// bench/ time themselves freely. Only calling a clock function is
// flagged — storing time.Now as a function value reads nothing.
package simclock

import (
	"go/ast"
	"strings"

	"repro/internal/lint"
)

// Analyzer flags calls to wall-clock functions of package time inside
// simulation packages.
var Analyzer = &lint.Analyzer{
	Name: "simclock",
	Doc: "forbid time.Now/Since/Sleep/... calls in simulation packages; " +
		"take time from the simulation instead",
	Run: run,
}

// banned lists the package-level time functions that read or wait on
// the wall clock. Duration arithmetic (time.Duration, ParseDuration,
// Unix, Date) stays legal: it is pure computation.
var banned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// InScope reports whether a package path belongs to the simulation set:
// everything under an internal/ directory except the lint tooling. No
// package there runs on wall time, so no list needs keeping; cmd/,
// examples/, bench/ and the root facade stay out.
func InScope(pkgPath string) bool {
	internal := false
	for _, elem := range strings.Split(pkgPath, "/") {
		switch elem {
		case "internal":
			internal = true
		case "lint":
			return false
		}
	}
	return internal
}

func run(pass *lint.Pass) error {
	if !InScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pass.InTestFile(call.Pos()) {
				// Tests may time themselves; determinism of the tested
				// code is enforced through its non-test files.
				return true
			}
			pkg, name := lint.CalleePkgFunc(pass.TypesInfo, call)
			if pkg == "time" && banned[name] {
				pass.Reportf(call.Pos(),
					"call to time.%s in simulation package %s breaks determinism; take time from the simulation or annotate //vodlint:allow simclock",
					name, pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}

// Command vodlint runs the repository's contract analyzers over the
// module: simclock, maprange, floateq, hotalloc and goctx. It then audits
// every //vodlint:allow directive: one that no longer suppresses a
// diagnostic, names an unknown analyzer or names nothing is a finding
// too.
//
// It loads and type-checks every package of the module rooted at the
// named directory (default ".") from source, without the go tool:
//
//	vodlint                   # lint the module at .
//	vodlint /path/to/module
//
// Each finding prints as file:line:col: analyzer: message, the form
// .github/vodlint-matcher.json turns into PR annotations. Exit status: 0
// clean, 1 findings, 2 operational error.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analyzers"
)

func main() {
	args := os.Args[1:]
	if len(args) > 1 || len(args) == 1 && strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(os.Stderr, "usage: vodlint [module-dir]")
		os.Exit(2)
	}
	dir := "."
	if len(args) == 1 {
		dir = args[0]
	}
	os.Exit(lintModule(dir))
}

// lintModule lints a whole module and prints its findings with
// module-relative paths.
func lintModule(dir string) int {
	root, err := findModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodlint:", err)
		return 2
	}
	found, err := lint.CheckModule(root, analyzers.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodlint:", err)
		return 2
	}
	for _, d := range found {
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
	}
	if len(found) > 0 {
		return 1
	}
	return 0
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

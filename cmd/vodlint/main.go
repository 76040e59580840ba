// Command vodlint runs the repository's contract analyzers over the
// module: the determinism suite (simclock, seededrand, maprange,
// floateq, bpsunits) and the dataflow suite (stepalias, hotalloc,
// foldorder, goctx).
//
// It loads and type-checks every package of the module rooted at the
// named directory (default ".") from source, without the go tool:
//
//	vodlint            # lint the module at .
//	vodlint -only simclock,maprange /path/to/module
//	vodlint -json .    # findings as a JSON array
//	vodlint -unused-allow .  # also report stale //vodlint:allow directives
//
// Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analyzers"
)

var all = analyzers.All()

func main() {
	var (
		only        = flag.String("only", "", "comma-separated subset of analyzers to run")
		list        = flag.Bool("list", false, "list analyzers and exit")
		jsonOut     = flag.Bool("json", false, "emit findings as a JSON array")
		unusedAllow = flag.Bool("unused-allow", false, "also report stale //vodlint:allow directives (full suite only)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vodlint [-only a,b] [-json] [-unused-allow] [module-dir]\n\nAnalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	selected, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodlint:", err)
		os.Exit(2)
	}
	if *unusedAllow && *only != "" {
		fmt.Fprintln(os.Stderr, "vodlint: -unused-allow needs the full suite; drop -only (a directive is only provably stale against every analyzer)")
		os.Exit(2)
	}

	dir := "."
	if args := flag.Args(); len(args) > 0 {
		dir = args[0]
	}
	os.Exit(lintModule(dir, selected, *jsonOut, *unusedAllow))
}

// selectAnalyzers resolves the -only subset.
func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// jsonDiagnostic is the -json wire form of one finding: flat fields,
// stable names, module-relative path — what the CI problem matcher
// and any downstream tooling key on.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// lintModule lints a whole module via the source loader.
func lintModule(dir string, analyzers []*lint.Analyzer, jsonOut, unusedAllow bool) int {
	root, err := findModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodlint:", err)
		return 2
	}
	pkgs, err := lint.Load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodlint:", err)
		return 2
	}
	var audit *lint.Audit
	if unusedAllow {
		audit = lint.NewAudit(analyzers)
	}
	var found []lint.Diagnostic
	for _, pkg := range pkgs {
		diags, err := lint.RunWithAudit(pkg, analyzers, audit)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vodlint:", err)
			return 2
		}
		found = append(found, diags...)
	}
	if audit != nil {
		found = append(found, audit.Stale()...)
		lint.SortDiagnostics(found)
	}
	for i, d := range found {
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			found[i].Pos.Filename = rel
		}
	}
	if jsonOut {
		out := make([]jsonDiagnostic, 0, len(found))
		for _, d := range found {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		data, err := json.MarshalIndent(out, "", "\t")
		if err != nil {
			fmt.Fprintln(os.Stderr, "vodlint:", err)
			return 2
		}
		fmt.Println(string(data))
	} else {
		for _, d := range found {
			fmt.Println(d)
		}
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

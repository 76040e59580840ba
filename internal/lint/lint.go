// Package lint is the home of vodlint, the static-analysis suite that
// guards the contracts no runtime gate sees: simulation packages may not
// read the wall clock, accumulate in map order or compare floats
// exactly; the hot path may not allocate; and a goroutine needs a way to
// be stopped or awaited.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API (Analyzer, Pass, Diagnostic) but is built on the standard library
// alone — go/ast, go/parser and go/types — because this module carries
// no external dependencies. An analyzer written here ports to the real
// framework by changing only the import path.
//
// Findings can be suppressed site-by-site with a directive comment:
//
//	start := time.Now() //vodlint:allow simclock — wall-clock runner timing
//
// placed on the offending line or on the line directly above it. The
// directive names the analyzer it silences; a bare //vodlint:allow is
// ignored so suppressions stay auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis: a name, documentation, and a Run
// function applied to each package. This mirrors analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //vodlint:allow directives.
	Name string
	// Doc is the one-paragraph help text, as in analysis.Analyzer.
	Doc string
	// Run inspects one package via the Pass and reports findings.
	Run func(*Pass) error
}

// A Pass provides one analyzer run over one type-checked package.
type Pass struct {
	// Analyzer is the analysis being run.
	Analyzer *Analyzer
	// Fset maps token.Pos to file positions (shared across packages).
	Fset *token.FileSet
	// Files are the package's parsed files, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's findings for the files.
	TypesInfo *types.Info
	// TestFilesOnly restricts reporting to _test.go files; the loader
	// sets it on test-augmented units so base files are not re-reported.
	TestFilesOnly bool

	diags []Diagnostic
	allow map[string]map[int]bool // filename -> line -> allowed
	audit *Audit                  // non-nil when RunWithAudit tracks suppressions
}

// A Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Message states the problem.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding unless a //vodlint:allow directive covers
// its line or the Pass is restricted to test files and the position is
// not in one.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.TestFilesOnly && !strings.HasSuffix(position.Filename, "_test.go") {
		return
	}
	if p.allowed(position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// allowed reports whether an allow directive for this analyzer covers
// the line or the line directly above it, informing the audit of the
// directive it used.
func (p *Pass) allowed(pos token.Position) bool {
	lines := p.allow[pos.Filename]
	ok := lines[pos.Line] || lines[pos.Line-1]
	if ok && p.audit != nil {
		if lines[pos.Line] {
			p.audit.markUsed(pos.Filename, pos.Line, p.Analyzer.Name)
		}
		if lines[pos.Line-1] {
			p.audit.markUsed(pos.Filename, pos.Line-1, p.Analyzer.Name)
		}
	}
	return ok
}

// indexDirectives scans the files' comments for //vodlint:allow
// directives naming this analyzer and records the lines they cover.
func (p *Pass) indexDirectives() {
	p.allow = map[string]map[int]bool{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseDirective(c.Text)
				if !ok || !names[p.Analyzer.Name] {
					continue
				}
				position := p.Fset.Position(c.Slash)
				m := p.allow[position.Filename]
				if m == nil {
					m = map[int]bool{}
					p.allow[position.Filename] = m
				}
				m[position.Line] = true
			}
		}
	}
}

// parseDirective extracts the analyzer names from a
// "//vodlint:allow name1 name2 — reason" comment. The reason text after
// the names is free-form; names stop at the first token that is not a
// plain identifier.
func parseDirective(text string) (map[string]bool, bool) {
	const prefix = "//vodlint:allow"
	if !strings.HasPrefix(text, prefix) {
		return nil, false
	}
	names := map[string]bool{}
	for _, tok := range strings.Fields(text[len(prefix):]) {
		if !isIdent(tok) {
			break
		}
		names[tok] = true
	}
	return names, len(names) > 0
}

func isIdent(s string) bool {
	for _, r := range s {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			return false
		}
	}
	return s != ""
}

// Run applies the analyzers to one type-checked package and returns
// their findings sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunWithAudit(pkg, analyzers, nil)
}

// RunWithAudit is Run with suppression tracking: when audit is
// non-nil, the package's allow directives are collected into it and
// each suppression marks its directive as load-bearing, so the audit
// can report the stale ones after the whole load.
func RunWithAudit(pkg *Package, analyzers []*Analyzer, audit *Audit) ([]Diagnostic, error) {
	if audit != nil {
		audit.Collect(pkg)
	}
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:      a,
			Fset:          pkg.Fset,
			Files:         pkg.Files,
			Pkg:           pkg.Types,
			TypesInfo:     pkg.Info,
			TestFilesOnly: pkg.TestUnit,
			audit:         audit,
		}
		pass.indexDirectives()
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		out = append(out, pass.diags...)
	}
	SortDiagnostics(out)
	return out, nil
}

// CheckModule loads the module rooted at root and runs the analyzers
// over every unit, then audits the //vodlint:allow directives against
// them. It returns the unsuppressed findings and the stale directives
// together, sorted by position. vodlint prints them; TestRepoLintClean
// wants none.
func CheckModule(root string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(root)
	if err != nil {
		return nil, err
	}
	return CheckPackages(pkgs, analyzers)
}

// CheckPackages is CheckModule over units Load already returned, so
// one load can serve several whole-module checks.
func CheckPackages(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	audit := NewAudit(analyzers)
	var found []Diagnostic
	for _, pkg := range pkgs {
		diags, err := RunWithAudit(pkg, analyzers, audit)
		if err != nil {
			return nil, err
		}
		found = append(found, diags...)
	}
	found = append(found, audit.Stale()...)
	SortDiagnostics(found)
	return found, nil
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

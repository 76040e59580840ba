package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// An Audit tracks //vodlint:allow directives across a whole load and
// reports the stale ones: directives that no longer suppress any
// diagnostic, name an unknown analyzer, or name nothing at all. Every
// suppression in the tree must stay load-bearing, or it silently
// rots into a license to reintroduce the bug it once excused.
type Audit struct {
	known map[string]bool
	sites map[string]map[int]*directiveSite // filename -> line -> site
}

// directiveSite is one //vodlint:allow occurrence, deduplicated by
// position: the loader parses base files again for test-augmented
// units.
type directiveSite struct {
	pos   token.Position
	names map[string]bool
	used  map[string]bool
}

// NewAudit prepares an audit for the given analyzer set.
func NewAudit(analyzers []*Analyzer) *Audit {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	return &Audit{known: known, sites: map[string]map[int]*directiveSite{}}
}

// Collect indexes the package's allow directives. Call it for every
// unit of a load before reading Stale.
func (a *Audit) Collect(pkg *Package) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//vodlint:allow") {
					continue
				}
				names, _ := parseDirective(c.Text)
				pos := pkg.Fset.Position(c.Slash)
				m := a.sites[pos.Filename]
				if m == nil {
					m = map[int]*directiveSite{}
					a.sites[pos.Filename] = m
				}
				site := m[pos.Line]
				if site == nil {
					site = &directiveSite{pos: pos, names: map[string]bool{}, used: map[string]bool{}}
					m[pos.Line] = site
				}
				for n := range names {
					site.names[n] = true
				}
			}
		}
	}
}

// markUsed records that the directive at file:line suppressed a
// diagnostic of the named analyzer.
func (a *Audit) markUsed(filename string, line int, name string) {
	if site := a.sites[filename][line]; site != nil {
		site.used[name] = true
	}
}

// Stale returns one diagnostic per directive defect, ordered by
// position: a named analyzer that suppressed nothing, an unknown
// analyzer name, or a bare directive naming no analyzer.
func (a *Audit) Stale() []Diagnostic {
	// Flatten the site index into position order first so the output
	// is deterministic by construction.
	var all []*directiveSite
	for _, lines := range a.sites {
		for _, site := range lines {
			all = append(all, site)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].pos.Filename != all[j].pos.Filename {
			return all[i].pos.Filename < all[j].pos.Filename
		}
		return all[i].pos.Line < all[j].pos.Line
	})
	var out []Diagnostic
	for _, site := range all {
		if len(site.names) == 0 {
			out = append(out, staleDiag(site.pos,
				"bare //vodlint:allow suppresses nothing; name the analyzer being silenced"))
			continue
		}
		var names []string
		for n := range site.names {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			switch {
			case !a.known[n]:
				out = append(out, staleDiag(site.pos,
					fmt.Sprintf("//vodlint:allow names unknown analyzer %q", n)))
			case !site.used[n]:
				out = append(out, staleDiag(site.pos,
					fmt.Sprintf("stale //vodlint:allow %s: it no longer suppresses any diagnostic; remove it", n)))
			}
		}
	}
	SortDiagnostics(out)
	return out
}

func staleDiag(pos token.Position, msg string) Diagnostic {
	return Diagnostic{Pos: pos, Analyzer: "unusedallow", Message: msg}
}

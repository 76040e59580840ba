// Package analyzers is the registry of every vodlint analyzer: simclock,
// maprange, floateq, hotalloc and goctx, each the only gate that catches
// at least one seeded violation of its contract (DESIGN.md §6). The
// vodlint driver and the repository self-check test share this list so
// they can never disagree about what "the full suite" means.
package analyzers

import (
	"repro/internal/lint"
	"repro/internal/lint/floateq"
	"repro/internal/lint/goctx"
	"repro/internal/lint/hotalloc"
	"repro/internal/lint/maprange"
	"repro/internal/lint/simclock"
)

// All returns the full analyzer suite in reporting order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		simclock.Analyzer,
		maprange.Analyzer,
		floateq.Analyzer,
		hotalloc.Analyzer,
		goctx.Analyzer,
	}
}

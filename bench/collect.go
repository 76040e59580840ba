package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Tool mode for run.sh: gather one set of runs (a directory holding
// <workload>.trace0.json and <workload>.trace1.json, each the last line
// a run printed) into one document, and check two sets of the same
// commit against each other.

// benchmarkFile is the part of BENCHMARK.json the tool reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// countTolerance is how far apart two runs of one commit may read a
// per-layer metric, as a share of the first: 0 for simulated statistics
// and counts made by the program, which no amount of host noise can
// move; a thousandth for allocations per session, which include a few
// dozen allocations of the runtime's own; -1 for metrics that
// are free to move.
func countTolerance(name string) float64 {
	if strings.HasPrefix(name, "sim.") || strings.HasPrefix(name, "fleet.cellcache_") && !strings.HasSuffix(name, "_frac") {
		return 0
	}
	switch name {
	case "expcache.misses", "expcache.mem_hits", "expcache.bypass", "cdn.requests", "cdn.probe_edge_hit_ratio":
		return 0
	case "runtime.allocs_per_session":
		return 1e-3
	}
	return -1
}

// loadSet reads one directory of results, keyed by workload then by
// trace mode ("end_to_end", "per_layer").
func loadSet(dir string) (map[string]map[string]result, error) {
	set := map[string]map[string]result{}
	for _, w := range workloadWhy {
		set[w.name] = map[string]result{}
		for _, f := range []struct{ mode, suffix string }{{"end_to_end", ".trace0.json"}, {"per_layer", ".trace1.json"}} {
			data, err := os.ReadFile(filepath.Join(dir, w.name+f.suffix))
			if err != nil {
				return nil, err
			}
			var res result
			if err := json.Unmarshal(data, &res); err != nil {
				return nil, fmt.Errorf("%s%s: %w", w.name, f.suffix, err)
			}
			set[w.name][f.mode] = res
		}
	}
	return set, nil
}

// collectMode prints the set in dir as one JSON document. With other
// set, it first checks the two sets agree: end-to-end metrics within
// the bound BENCHMARK.json (in the working directory) gives them,
// counts exactly, and no failed op in either.
func collectMode(dir, other string, out io.Writer) error {
	set, err := loadSet(dir)
	if err != nil {
		return err
	}
	if other != "" {
		second, err := loadSet(other)
		if err != nil {
			return err
		}
		data, err := os.ReadFile("BENCHMARK.json")
		if err != nil {
			return err
		}
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		if diffs := compareSets(set, second, bf); len(diffs) > 0 {
			return fmt.Errorf("the two sets disagree:\n  %s", strings.Join(diffs, "\n  "))
		}
		fmt.Fprintf(os.Stderr, "bench: %s and %s agree: every end-to-end metric within its bound, every count and simulated statistic repeats\n", dir, other)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(set)
}

// compareSets lists every disagreement between two sets of runs.
func compareSets(a, b map[string]map[string]result, bf benchmarkFile) []string {
	var diffs []string
	for _, w := range workloadWhy {
		for _, mode := range []string{"end_to_end", "per_layer"} {
			ra, rb := a[w.name][mode], b[w.name][mode]
			if !ra.Correct || !rb.Correct {
				diffs = append(diffs, fmt.Sprintf("%s %s: failed ops %d/%d and %d/%d", w.name, mode, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted))
			}
		}
		for _, e := range bf.EndToEnd {
			va, vb := a[w.name]["end_to_end"].Metrics[e.Name].Value, b[w.name]["end_to_end"].Metrics[e.Name].Value
			if rel := math.Abs(vb-va) / math.Abs(va); !(rel <= e.Bound) {
				diffs = append(diffs, fmt.Sprintf("%s %s: %g vs %g, %.1f%% apart, bound %.0f%%", w.name, e.Name, va, vb, 100*rel, 100*e.Bound))
			}
		}
		for _, d := range perLayer {
			tol := countTolerance(d.name)
			if tol < 0 {
				continue
			}
			va, vb := a[w.name]["per_layer"].Metrics[d.name].Value, b[w.name]["per_layer"].Metrics[d.name].Value
			if math.Abs(vb-va) > tol*math.Abs(va) {
				diffs = append(diffs, fmt.Sprintf("%s %s: %v vs %v, must repeat", w.name, d.name, va, vb))
			}
		}
	}
	return diffs
}

// Command vodreport regenerates every experiment and writes a single
// markdown report — the machine-refreshable companion to EXPERIMENTS.md.
// Experiments fan out across the process-wide scheduler; the report is
// assembled in paper order regardless of completion order, so the output
// is identical for any worker count.
//
// Sessions are memoized through the content-addressed cache in
// internal/expcache: duplicate sessions within one run are computed
// once.
//
// Usage:
//
//	vodreport -out REPORT.md
//	vodreport -workers 8 -out -
//	vodreport -v                         # + session-cache statistics
//	vodreport -stable -out r.md          # byte-stable output (no timings)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/expcache"
	"repro/internal/experiments"
)

func main() {
	out := flag.String("out", "REPORT.md", "output file (- for stdout)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent experiments (1 = serial)")
	quiet := flag.Bool("q", false, "suppress per-experiment progress lines")
	verbose := flag.Bool("v", false, "print session-cache statistics to stderr")
	stable := flag.Bool("stable", false, "omit wall-clock timing lines so the report is byte-stable across runs")
	flag.Parse()

	opts := experiments.Options{Workers: *workers}
	if !*quiet {
		done, total := 0, len(experiments.All())
		opts.OnProgress = func(r experiments.Result) {
			done++
			fmt.Fprintf(os.Stderr, "vodreport: [%2d/%d] %-15s %6.2fs %8.1f MB alloc\n",
				done, total, r.ID, r.Elapsed.Seconds(), float64(r.AllocBytes)/1e6)
		}
	}
	start := time.Now()
	results, err := experiments.RunAll(context.Background(), opts)
	if err != nil {
		log.Fatalf("vodreport: %v", err)
	}
	wall := time.Since(start)

	var b strings.Builder
	b.WriteString("# Regenerated experiment report\n\n")
	b.WriteString("Produced by `vodreport`; every table below is regenerated from the\n")
	b.WriteString("committed code with fixed seeds. See EXPERIMENTS.md for the\n")
	b.WriteString("paper-vs-measured comparison and DESIGN.md for the substitutions.\n")
	var serial time.Duration
	for _, r := range results {
		serial += r.Elapsed
		fmt.Fprintf(&b, "\n## %s — %s\n\n", r.ID, r.Title)
		if !*stable {
			fmt.Fprintf(&b, "_regenerated in %.1fs_\n\n", r.Elapsed.Seconds())
		}
		for _, t := range r.Tables {
			b.WriteString(t.Markdown())
			b.WriteString("\n")
		}
		for _, p := range r.Plots {
			b.WriteString("```\n")
			b.WriteString(p)
			b.WriteString("```\n\n")
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "vodreport: %d experiments in %.2fs wall (%.2fs summed serial, %.2fx) with %d workers\n",
			len(results), wall.Seconds(), serial.Seconds(), serial.Seconds()/wall.Seconds(), *workers)
	}
	if *verbose {
		s := expcache.Default.Snapshot()
		fmt.Fprintf(os.Stderr, "vodreport: cache: %d misses, %d memory hits, %d deduped, %d bypassed; %d origins built, %d reused\n",
			s.Misses, s.MemHits, s.Dedup, s.Bypass, s.OriginBuilds, s.OriginHits)
	}
	if *out == "-" {
		fmt.Print(b.String())
		return
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		log.Fatalf("vodreport: %v", err)
	}
	fmt.Println("wrote", *out)
}

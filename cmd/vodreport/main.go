// Command vodreport regenerates the paper's tables and figures and
// writes them as one markdown report — the machine-refreshable companion
// to EXPERIMENTS.md. Experiments fan out across the process-wide
// scheduler; the report is assembled in request order (paper order by
// default) regardless of completion order, so the output is identical
// for any worker count.
//
// Sessions run through internal/expcache, which counts them and builds
// each distinct origin once; no session result is kept past the
// experiment that reads it.
//
// Usage:
//
//	vodreport -out REPORT.md
//	vodreport -workers 8 -out -
//	vodreport -list                      # experiment ids
//	vodreport -exp fig8,fig9 -out -      # only those sections, in that order
//	vodreport -v                         # + sessions run, origins built/reused
//	vodreport -stable -out r.md          # byte-stable output (no timings)
//	vodreport -exp table1 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/expcache"
	"repro/internal/experiments"
)

const preamble = "# Regenerated experiment report\n\n" +
	"Produced by `vodreport`; every table below is regenerated from the\n" +
	"committed code with fixed seeds. See EXPERIMENTS.md for the\n" +
	"paper-vs-measured comparison and DESIGN.md for the substitutions.\n"

func main() {
	// Same batch GC cadence as vodfleet and bench/, so the report and
	// its profiles run under the configuration the benchmark measures
	// (GOGC still wins).
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run holds the real main so deferred profile writers execute before
// the process exits (os.Exit skips defers).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vodreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "REPORT.md", "output file (- for stdout)")
	exp := fs.String("exp", "all", "experiment id(s), comma-separated, rendered in the given order ('all' = the full report)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent experiments (1 = serial)")
	quiet := fs.Bool("q", false, "suppress per-experiment progress lines")
	verbose := fs.Bool("v", false, "print sessions run and origins built/reused to stderr")
	stable := fs.Bool("stable", false, "omit wall-clock timing lines so the report is byte-stable across runs")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}
	total := len(experiments.All())
	var ids []string // nil = all, in paper order
	if *exp != "all" {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if experiments.ByID(id) == nil {
				fmt.Fprintf(stderr, "vodreport: unknown experiment %q (try -list)\n", id)
				return 2
			}
			ids = append(ids, id)
		}
		total = len(ids)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "vodreport: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "vodreport: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "vodreport: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "vodreport: %v\n", err)
		}
	}()

	opts := experiments.Options{Workers: *workers, IDs: ids}
	if !*quiet {
		done := 0
		opts.OnProgress = func(r experiments.Result) {
			done++
			fmt.Fprintf(stderr, "vodreport: [%2d/%d] %-15s %6.2fs %8.1f MB alloc\n",
				done, total, r.ID, r.Elapsed.Seconds(), float64(r.AllocBytes)/1e6)
		}
	}
	start := time.Now()
	results, err := experiments.RunAll(context.Background(), opts)
	if err != nil {
		fmt.Fprintf(stderr, "vodreport: %v\n", err)
		return 1
	}
	wall := time.Since(start)

	// A selection is the report's sections without its preamble; either
	// way one blank line separates what precedes a section from it.
	var b strings.Builder
	if ids == nil {
		b.WriteString(preamble)
	}
	var serial time.Duration
	for _, r := range results {
		serial += r.Elapsed
		if b.Len() > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
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
		fmt.Fprintf(stderr, "vodreport: %d experiments in %.2fs wall (%.2fs summed serial, %.2fx) with %d workers\n",
			len(results), wall.Seconds(), serial.Seconds(), serial.Seconds()/wall.Seconds(), *workers)
	}
	if *verbose {
		s := expcache.Default.Snapshot()
		fmt.Fprintf(stderr, "vodreport: %d sessions run; %d origins built, %d reused\n",
			s.Misses, s.OriginBuilds, s.OriginHits)
	}
	if *out == "-" {
		fmt.Fprint(stdout, b.String())
		return 0
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintf(stderr, "vodreport: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "wrote", *out)
	return 0
}

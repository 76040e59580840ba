// Command vodbench regenerates the paper's tables and figures from the
// simulated testbed. Multiple experiments run on the parallel engine;
// output stays in paper order for any worker count. Timing the
// repository is bench/'s job (see BENCHMARK.json).
//
// Usage:
//
//	vodbench -list
//	vodbench -exp fig8
//	vodbench -exp fig8,fig9
//	vodbench -exp all -workers 8
//	vodbench -exp all -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"runtime/debug"
)

func main() {
	// Same batch GC cadence as vodfleet, so profiles measure the code
	// under the deployment configuration (GOGC still wins).
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	os.Exit(run())
}

// run holds the real main so deferred profile writers execute before
// the process exits (os.Exit skips defers).
func run() int {
	list := flag.Bool("list", false, "list experiment ids")
	exp := flag.String("exp", "", "experiment id(s), comma-separated (fig3..fig15, table1, table2, sr_whatif, or 'all')")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent experiments (1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vodbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "vodbench: %v\n", err)
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
			fmt.Fprintf(os.Stderr, "vodbench: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "vodbench: %v\n", err)
		}
	}()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			return 2
		}
		return 0
	}

	var ids []string
	if *exp != "all" {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if experiments.ByID(id) == nil {
				fmt.Fprintf(os.Stderr, "vodbench: unknown experiment %q (try -list)\n", id)
				return 2
			}
			ids = append(ids, id)
		}
	}

	results, err := experiments.RunAll(context.Background(), experiments.Options{
		Workers: *workers,
		IDs:     ids, // nil = all, in paper order
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodbench: %v\n", err)
		return 1
	}
	for _, r := range results {
		fmt.Printf("### %s — %s (%.1fs, %.1f MB alloc)\n\n", r.ID, r.Title, r.Elapsed.Seconds(), float64(r.AllocBytes)/1e6)
		for _, t := range r.Tables {
			fmt.Println(t.String())
		}
		for _, p := range r.Plots {
			fmt.Println(p)
		}
	}
	return 0
}

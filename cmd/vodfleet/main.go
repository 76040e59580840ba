// Command vodfleet runs a population-scale streaming simulation: many
// clients, drawn from a seeded workload model, streaming the paper's 12
// service models through shared cellular edge links (internal/fleet).
// It prints per-service QoE CDFs and a cell-level fairness/utilization
// table, and can emit the full report as deterministic JSON — for a
// given seed the bytes are identical regardless of -workers.
//
// Usage:
//
//	vodfleet -sessions 10000 -seed 1
//	vodfleet -sessions 2000 -services H1,D2,S1 -edge-mbps 25
//	vodfleet -sessions 10000 -seed 1 -workers 8 -json report.json
//	vodfleet -sessions 100000 -hotspot 0.8 -fidelity 0.02 -cpuprofile cpu.pprof
//
// Sweep mode re-runs the fleet over a list of values for one field,
// sharing a cell-granular cache across the runs: cells whose workload
// inputs repeat between sweep points are merged from cache instead of
// re-simulated (the report bytes are identical either way). Per-run
// cache hit/build/skip counters and what the memo holds print to stderr:
//
//	vodfleet -sessions 100000 -sweep hotspot=0,0.2,0.4,0.6,0.8
//	vodfleet -sessions 20000 -sweep edge-mbps=10,20,40 -json report.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cdn"
	"repro/internal/fleet"
)

func main() {
	log.SetFlags(0)
	// Batch workload: one run, throughput-bound, modest live heap. The
	// default GC cadence (GOGC=100) spends ~8% of the run in mark/write
	// barriers at million-session scale; 400 cuts that 4x while the
	// -memceiling-mb gate still bounds the live heap. GOGC set in the
	// environment still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	// Every config flag writes its fleet.Config field directly, so the
	// flag table is the only place a flag and a field are paired.
	var cfg fleet.Config
	flag.IntVar(&cfg.Sessions, "sessions", 1000, "population size")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.ArrivalWindowSec, "window", 0, "arrival window in seconds (0 = default 600)")
	flag.Float64Var(&cfg.WatchSec, "watch", 0, "full watch duration in seconds (0 = default 120)")
	flag.Float64Var(&cfg.AbandonProb, "abandon-prob", 0, "early-abandon probability (0 = default 0.35, negative = none)")
	flag.Float64Var(&cfg.AbandonMeanSec, "abandon-mean", 0, "mean abandoned watch duration in seconds (0 = default 45)")
	flag.IntVar(&cfg.ClientsPerCell, "cell-size", 0, "clients per shared edge link (0 = default 24)")
	flag.Float64Var(&cfg.EdgeMbps, "edge-mbps", 0, "shared edge budget per cell in Mbit/s (0 = default 40)")
	flag.Float64Var(&cfg.FidelityFull, "fidelity", 0, "fraction of sessions at full player fidelity (0 = default 1, negative = all background tier)")
	flag.IntVar(&cfg.FocusSessions, "focus", 0, "retain full per-session records for this many seeded focus members")
	flag.Float64Var(&cfg.Hotspot, "hotspot", 0, "fraction of the population concentrated on cell 0 (flash crowd; 0 = balanced cells)")
	// The flags defined so far are the ones bound to a Config field: the
	// set -sweep may re-set by name.
	sweepable := map[string]bool{}
	flag.VisitAll(func(f *flag.Flag) { sweepable[f.Name] = true })

	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent cells (never affects output bytes)")
	cacheSpec := flag.String("cache", "", "edge-cache tier spec, e.g. edge:512MiB,metro:8GiB,ttl=6h (empty = no cache tier)")
	cacheFail := flag.String("cachefail", "", "edge-node failure injection, e.g. cell=3,t=120s (requires -cache)")
	coldCells := flag.String("coldcells", "", "cells whose caches start cold, e.g. 0-15,40 (requires -cache)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	memCeiling := flag.Int("memceiling-mb", 0, "fail if live heap exceeds this many MiB during the run (0 = no ceiling)")
	svcList := flag.String("services", "", "comma-separated service mix (empty = all 12; repeats weight the mix)")
	jsonOut := flag.String("json", "", "write the full JSON report to this file (- for stdout)")
	sweep := flag.String("sweep", "", "sweep one config flag over comma-separated values (flag=v1,v2,...), sharing a cell-granular cache across runs")
	quiet := flag.Bool("q", false, "suppress the text summary and plots")
	flag.Parse()

	if *svcList != "" {
		for _, s := range strings.Split(*svcList, ",") {
			if s = strings.TrimSpace(s); s != "" {
				cfg.Services = append(cfg.Services, s)
			}
		}
	}
	if *cacheSpec != "" {
		cc, err := cdn.ParseCacheSpec(*cacheSpec)
		if err != nil {
			log.Fatalf("vodfleet: %v", err)
		}
		cc.ColdCells = *coldCells
		if *cacheFail != "" {
			if err := cdn.ParseFailSpec(*cacheFail, &cc); err != nil {
				log.Fatalf("vodfleet: %v", err)
			}
		}
		cfg.Cache = &cc
	} else if *cacheFail != "" || *coldCells != "" {
		log.Fatalf("vodfleet: -cachefail and -coldcells need -cache")
	}

	// The heap ceiling is a self-gate for CI: a background sampler
	// watches the live heap and aborts the process the moment the
	// memory contract is broken, instead of trusting an external RSS
	// probe that varies with the allocator and the OS.
	var peakHeap atomic.Uint64
	if *memCeiling > 0 {
		limit := uint64(*memCeiling) << 20
		//vodlint:allow goctx — process-lifetime heap sampler: dies with the run, nothing to cancel
		go func() {
			var ms runtime.MemStats
			for {
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peakHeap.Load() {
					peakHeap.Store(ms.HeapAlloc)
				}
				if ms.HeapAlloc > limit {
					log.Fatalf("vodfleet: live heap %.1f MiB exceeded the %d MiB ceiling",
						float64(ms.HeapAlloc)/(1<<20), *memCeiling)
				}
				time.Sleep(100 * time.Millisecond)
			}
		}()
	}

	// Profiling passthrough (same contract as vodreport) so hotspot runs
	// can be profiled directly. Fatal error paths skip the writes — the
	// profiles only matter for runs that complete.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("vodfleet: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("vodfleet: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vodfleet: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "vodfleet: %v\n", err)
		}
	}()

	// A plain run is the one-point sweep that sets nothing. Each sweep
	// value is handed to the swept flag's own parser (flag.Set), which
	// writes the bound cfg field — so a sweep point is exactly what the
	// flag would have set, and a value the flag would refuse is refused
	// here.
	field, points := "", []string{""}
	var cache *fleet.CellCache
	sweeping := *sweep != ""
	if sweeping {
		f, vals, ok := strings.Cut(*sweep, "=")
		if !ok {
			log.Fatalf("vodfleet: -sweep wants field=v1,v2,... (got %q)", *sweep)
		}
		if field = strings.TrimSpace(f); !sweepable[field] {
			log.Fatalf("vodfleet: -sweep: %q is not a config flag", field)
		}
		points = strings.Split(vals, ",")
		cache = fleet.NewCellCache()
	}
	var prev fleet.CellCacheStats
	for _, raw := range points {
		point := "" // "field=value: " in error messages
		jsonName := *jsonOut
		if sweeping {
			raw = strings.TrimSpace(raw)
			if err := flag.Set(field, raw); err != nil {
				log.Fatalf("vodfleet: sweep: invalid value %q for flag -%s: %v", raw, field, err)
			}
			point = fmt.Sprintf("%s=%s: ", field, raw)
			// One JSON file per run, the sweep point appended to the name.
			jsonName = fmt.Sprintf("%s.%s=%s", *jsonOut, field, raw)
		}
		start := time.Now()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := fleet.RunWithOptions(context.Background(), cfg,
			fleet.RunOptions{Workers: *workers, CellCache: cache})
		if err != nil {
			log.Fatalf("vodfleet: %s%v", point, err)
		}
		runtime.ReadMemStats(&after)
		if sweeping {
			s := cache.Stats()
			hits, builds, skipped := s.Hits-prev.Hits, s.Builds-prev.Builds, s.Skipped-prev.Skipped
			prev = s
			pct := 0.0
			if total := hits + builds + skipped; total > 0 {
				pct = 100 * float64(hits) / float64(total)
			}
			fmt.Fprintf(os.Stderr,
				"vodfleet: sweep %s=%s: %d sessions, %d cells, %d cached / %d simulated / %d uncached (%.0f%% warm), %.1fs, memo %d cells, %.0f KiB\n",
				field, raw, rep.Sessions, rep.Cells, hits, builds, skipped, pct, time.Since(start).Seconds(),
				s.Cells, float64(s.Bytes)/(1<<10))
		} else if !*quiet {
			fmt.Fprintf(os.Stderr, "vodfleet: %d sessions in %d cells simulated in %.1fs\n",
				rep.Sessions, rep.Cells, time.Since(start).Seconds())
		}
		if *memCeiling > 0 {
			// Allocated is the run's own TotalAlloc delta: what a live-heap
			// peak hides when the collector keeps up, and the first number
			// to move when a slab is sized by the population again.
			allocated := after.TotalAlloc - before.TotalAlloc
			fmt.Fprintf(os.Stderr, "vodfleet: peak live heap %.1f MiB (ceiling %d MiB), allocated %.1f MiB (%d B/session)\n",
				float64(peakHeap.Load())/(1<<20), *memCeiling,
				float64(allocated)/(1<<20), allocated/uint64(rep.Sessions))
		}
		if *jsonOut != "" {
			b, err := rep.JSON()
			if err != nil {
				log.Fatalf("vodfleet: marshal report: %v", err)
			}
			if *jsonOut == "-" {
				os.Stdout.Write(b)
			} else if err := os.WriteFile(jsonName, b, 0o644); err != nil {
				log.Fatalf("vodfleet: %v", err)
			}
		}
		if *quiet {
			continue
		}
		if sweeping {
			fmt.Printf("== %s = %s ==\n", field, raw)
		}
		fmt.Println(rep.Summary().String())
		fmt.Println(rep.CellTable().String())
		if t := rep.CDNTable(); t != nil {
			fmt.Println(t.String())
		}
		fmt.Print(rep.CDFPlots(72, 14))
	}
}

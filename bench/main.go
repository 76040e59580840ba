// Command bench is the repository's benchmark: four workloads, each run
// in its own process by a single closed-loop caller on one worker, that
// report the simulator's host-time cost end to end and layer by layer.
// BENCHMARK.json at the repository root declares every metric it
// prints; README.md beside this file explains them.
//
// Every number is host time of a deterministic simulator: simulated
// statistics repeat exactly between runs and commits, host time is what
// an optimisation moves.
//
// Usage:
//
//	go run ./bench --workload fleet_mixed --seed 1 --seconds 15 --trace 0
//	go run ./bench --workload fleet_mixed --seed 1 --seconds 15 --trace 1
//	bench/run.sh [--repeat]
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it runs the workload under a CPU profile and
// benchmark-side spans, adds a pass on every core and the layer probes,
// prints the per-layer metrics and writes a Chrome trace. The last line
// of standard output is one JSON object: correct, attempted, failed,
// metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/expcache"
	"repro/internal/sched"
)

// metricDecl names one metric and its unit. BENCHMARK.json repeats
// both (a unit test holds the two lists together).
type metricDecl struct{ name, unit string }

// endToEnd are the metrics a user of the simulator would see, measured
// with tracing off.
var endToEnd = []metricDecl{
	{"wall_s", "s"},                // median wall-clock of one timed op on one worker
	{"sessions_per_s_core", "1/s"}, // simulated sessions per host-second on one worker
	{"peak_rss_mib", "MiB"},        // VmHWM right after the last timed op
	{"setup_s", "s"},               // median of the set-ups: memo reset, origin construction, warm-up (sweep_warm: the cold cache-filling run)
}

// perLayer are the single-layer metrics of a traced run: the cost
// ladder first, then probes, counts and simulated statistics. A metric
// the workload does not exercise reads 0.
var perLayer = func() []metricDecl {
	var ms []metricDecl
	for _, l := range ladderLayers {
		ms = append(ms, metricDecl{l + ".cpu_share", "ratio"}, metricDecl{l + ".ns_per_session", "ns"})
	}
	return append(ms, []metricDecl{
		{"trace.overhead_frac", "ratio"},
		{"netem.cursor_ns_per_read", "ns"},
		{"simnet.scan_ns_per_event", "ns"}, {"simnet.scan_allocs_per_event", "count"},
		{"simnet.cell_ns_per_event", "ns"}, {"simnet.cell_allocs_per_event", "count"},
		{"simnet.vtime_ns_per_event", "ns"}, {"simnet.vtime_allocs_per_event", "count"},
		{"simnet.backhaul_ns_per_event", "ns"},
		{"player.session_full_us", "us"}, {"player.session_full_allocs", "count"},
		{"player.session_lean_us", "us"}, {"player.session_lean_allocs", "count"},
		{"player.cohort_us_per_member", "us"}, {"player.cohort_allocs_per_member", "count"},
		{"cdn.resolve_ns", "ns"}, {"cdn.resolve_allocs", "count"}, {"cdn.probe_edge_hit_ratio", "ratio"},
		{"cdn.requests", "count"}, {"cdn.edge_hit_ratio", "ratio"}, {"cdn.backhaul_bytes", "bytes"},
		{"fleet.workload_ns_per_client", "ns"}, {"fleet.render_json_ms", "ms"}, {"fleet.render_text_ms", "ms"},
		{"fleet.sweep_op_p95_ms", "ms"},
		{"fleet.cellcache_hits", "count"}, {"fleet.cellcache_builds", "count"}, {"fleet.cellcache_skipped", "count"},
		{"fleet.cellcache_build_overhead_frac", "ratio"}, {"fleet.partial_point_s", "s"},
		{"sched.steal_ns_per_unit", "ns"}, {"sched.par_eff", "ratio"},
		{"expcache.fingerprint_ns", "ns"}, {"expcache.hit_ns", "ns"},
		{"expcache.misses", "count"}, {"expcache.mem_hits", "count"}, {"expcache.bypass", "count"},
		{"expcache.warm_report_s", "s"},
		{"experiments.table1_ms", "ms"}, {"experiments.table2_ms", "ms"}, {"experiments.max_other_ms", "ms"},
		{"runtime.allocs_per_session", "count"}, {"runtime.alloc_bytes_per_session", "bytes"}, {"runtime.gc_cycles", "count"},
		{"sim.sessions", "count"}, {"sim.started", "count"}, {"sim.full_sessions", "count"},
		{"sim.background_sessions", "count"}, {"sim.total_bytes", "bytes"},
		{"sim.report_bytes", "bytes"}, {"sim.report_sha48", "count"},
		{"host.calib_fnv1a_ms", "ms"}, {"host.nproc", "count"}, {"host.gomaxprocs", "count"},
	}...)
}()

// options are one run's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "fleet_mixed, fleet_flashcrowd, report_cold or sweep_warm")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the workload and of every probe input (hold-out: 2)")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes, for the unit tests")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for the Chrome trace")
	collect := flag.String("collect", "", "tool mode: merge the result files of this directory into one JSON object on standard output")
	compare := flag.String("compare", "", "tool mode: with -collect, check that directory's results against this second set (run.sh --repeat)")
	flag.Parse()
	o.trace = *trace != 0

	if *collect != "" {
		if err := collectMode(*collect, *compare, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// holdSerial takes every slot of the process-wide scheduler but one, so
// that a workers=1 op really runs on one goroutine: experiments' inner
// sweeps fan out over whatever slots are free, whatever Workers says.
func holdSerial() (release func()) {
	held := 0
	for held < sched.Global.Capacity()-1 && sched.Global.TryAcquire() {
		held++
	}
	return func() {
		for ; held > 0; held-- {
			sched.Global.Release()
		}
	}
}

// run executes one benchmark run and writes its human-readable lines to
// log. An error means the run could not be made; failed checks are
// counted in the result instead.
func run(ctx context.Context, o options, log io.Writer) (result, error) {
	// As vodfleet and vodbench run: trades a larger heap for fewer
	// collections.
	debug.SetGCPercent(400)
	sz := fullSizing
	if o.smoke {
		sz = smokeSizing
	}
	w, err := newWorkload(o.workload, o.seed, sz)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "workload %s seed %d seconds %g trace %v (host time of a deterministic simulator; workers=1, GOGC=400)\n",
		o.workload, o.seed, o.seconds, o.trace)
	if o.workload == "report_cold" {
		fmt.Fprintln(log, "note: the paper's experiment matrix is fixed, so --seed changes only the probe inputs of this workload")
	}
	r := &runner{o: o, w: w, log: log, budget: time.Duration(o.seconds * float64(time.Second))}
	r.release = holdSerial()
	defer func() { r.release() }()

	var values map[string]float64
	decls := endToEnd
	if o.trace {
		decls = perLayer
		values, err = r.traced(ctx)
	} else {
		values, err = r.untraced(ctx)
	}
	if err != nil {
		return result{}, err
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(log, "%-38s %s %s\n", d.name, strconv.FormatFloat(values[d.name], 'g', -1, 64), d.unit)
	}
	fmt.Fprintf(log, "fail_ratio %d/%d\n", r.failed, r.attempted)
	return res, nil
}

// runner carries one run's state: the op counters and the first op's
// output, which every later op's bytes are compared with.
type runner struct {
	o       options
	w       workload
	log     io.Writer
	budget  time.Duration
	release func()

	attempted, failed int
	first             []byte
	host              hostState
}

// do runs one op and counts it: it fails if the call errors, if one of
// its own checks fails, or if its bytes differ from the first op's.
func (r *runner) do(ctx context.Context, workers int, tr *tracer, what string) (opResult, error) {
	var res opResult
	_, norm, err := r.host.around(func() (time.Duration, error) {
		end := tr.begin(what)
		defer end()
		var err error
		res, err = r.w.op(ctx, workers, tr)
		return res.wall, err
	})
	res.norm = norm
	r.attempted++
	if err != nil {
		r.failed++
		return res, fmt.Errorf("%s: %w", what, err)
	}
	if r.first == nil {
		r.first = res.out
	} else if !bytes.Equal(res.out, r.first) {
		res.failures = append(res.failures, "output bytes differ from the first op's")
	}
	r.count(what, res.failures)
	return res, nil
}

func (r *runner) count(what string, failures []string) {
	if len(failures) > 0 {
		r.failed++
		fmt.Fprintf(r.log, "FAILED %s: %s\n", what, strings.Join(failures, "; "))
	}
}

// timedOps runs ops on one worker until the next one would overrun the
// budget, at least minOps, and returns their results.
func (r *runner) timedOps(ctx context.Context, budget time.Duration, minOps int, tr *tracer) ([]opResult, error) {
	var ops []opResult
	start := time.Now()
	for last := time.Duration(0); len(ops) < minOps || time.Since(start)+last <= budget; {
		res, err := r.do(ctx, 1, tr, "rep")
		if err != nil {
			return nil, err
		}
		ops = append(ops, res)
		last = res.wall
	}
	return ops, nil
}

// batch is timedOps back to back between two settlings, with none in
// between, so that a CPU profile of it (written to prof when set) holds
// the ops only. Reference and traced ops both run this way, which keeps
// the collector's share of them comparable.
func (r *runner) batch(ctx context.Context, budget time.Duration, minOps int, tr *tracer, prof io.Writer) ([]opResult, error) {
	before := r.host.settle()
	r.host.frozen = true
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}
	ops, err := r.timedOps(ctx, budget, minOps, tr)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	r.host.frozen = false
	// Each op was scaled by the calibration before the batch alone.
	rescale := before / ((before + r.host.settle()) / 2)
	for i := range ops {
		ops[i].norm *= rescale
	}
	return ops, err
}

// seconds lists the ops' times: scaled to the reference host speed, or
// raw wall-clock.
func seconds(ops []opResult, scaled bool) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = op.wall.Seconds()
		if scaled {
			out[i] = op.norm
		}
	}
	return out
}

// setupReps is how many times an untraced run sets up; setup_s is their
// median, which keeps one slow start from reading as a regression.
const setupReps = 3

// untraced measures the end-to-end metrics.
func (r *runner) untraced(ctx context.Context) (map[string]float64, error) {
	var setupsRaw, setups []float64
	for i := 0; i < setupReps; i++ {
		raw, norm, err := r.host.around(func() (time.Duration, error) {
			start := time.Now()
			err := r.w.setup(ctx, nil)
			return time.Since(start), err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupsRaw, setups = append(setupsRaw, raw), append(setups, norm)
	}
	ops, err := r.timedOps(ctx, r.budget, 3, nil)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	walls, raw := seconds(ops, true), seconds(ops, false)
	wall := median(walls)
	fmt.Fprintf(r.log, "timed ops n=%d: wall median %.6f s raw, %.6f s at reference host speed", len(ops), median(raw), wall)
	if p, v, beyond, ok := highestPercentile(walls); ok {
		fmt.Fprintf(r.log, ", p%g %.6f s (%d beyond)", p, v, beyond)
	}
	fmt.Fprintf(r.log, "\nset-ups n=%d: median %.6f s raw\nhost calibration n=%d: median %.4f ms per pass (reference %.2f)\noutput sha256/48 %012x, %d bytes\n",
		len(setups), median(setupsRaw), len(r.host.calibs), median(r.host.calibs), calibRefMs, uint64(sha48(ops[0].out)), len(ops[0].out))
	return map[string]float64{
		"wall_s":              wall,
		"sessions_per_s_core": ops[0].sessions / wall,
		"peak_rss_mib":        rss,
		"setup_s":             median(setups),
	}, nil
}

// traced measures the per-layer metrics: ops with tracing off and the
// same ops under a CPU profile and spans, one op on every core, the
// workload's own extra passes, then the layer probes.
// Op times are scaled to the reference host speed, as wall_s is; probe
// times are raw (read them against host.calib_fnv1a_ms).
func (r *runner) traced(ctx context.Context) (map[string]float64, error) {
	tr := newTracer(r.o.workload)
	m := map[string]float64{}

	end := tr.begin("setup")
	err := r.w.setup(ctx, tr)
	end()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	// The first op, alone and with tracing off, gives the counts that
	// repeat exactly: allocations, memo traffic, simulated statistics.
	r.host.settle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ref, err := r.do(ctx, 1, nil, "rep")
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	cache := expcache.Default.Snapshot()
	m["runtime.allocs_per_session"] = float64(after.Mallocs-before.Mallocs) / ref.sessions
	m["runtime.alloc_bytes_per_session"] = float64(after.TotalAlloc-before.TotalAlloc) / ref.sessions
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["expcache.misses"], m["expcache.mem_hits"], m["expcache.bypass"] = float64(cache.Misses), float64(cache.MemHits), float64(cache.Bypass)
	m["sim.sessions"] = ref.sessions
	m["sim.report_bytes"] = float64(len(ref.out))
	m["sim.report_sha48"] = sha48(ref.out)

	// Then batches of reference ops (tracing off) and of traced ops
	// (100 Hz CPU profile and spans) take turns, a second and half a
	// second at a time in a 15 s run, so that both meet the same host
	// states and their difference is the tracing overhead.
	var refOps, tracedOps []opResult
	var samples []stackSample
	start := time.Now()
	for round := time.Duration(0); len(tracedOps) == 0 || time.Since(start)+round <= r.budget*6/10-ref.wall; {
		roundStart := time.Now()
		ops, err := r.batch(ctx, r.budget/15, 1, nil, nil)
		if err != nil {
			return nil, err
		}
		refOps = append(refOps, ops...)
		var prof bytes.Buffer
		if ops, err = r.batch(ctx, r.budget/30, 1, tr, &prof); err != nil {
			return nil, err
		}
		tracedOps = append(tracedOps, ops...)
		stacks, err := decodeProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		samples = append(samples, stacks...)
		round = time.Since(roundStart)
	}
	refWalls := seconds(refOps, true)
	refWall, tracedWall := median(refWalls), median(seconds(tracedOps, true))
	shares, total := ladderShares(samples)
	for _, l := range ladderLayers {
		m[l+".cpu_share"] = shares[l]
		m[l+".ns_per_session"] = shares[l] * tracedWall * 1e9 / ref.sessions
	}
	m["trace.overhead_frac"] = tracedWall/refWall - 1
	fmt.Fprintf(r.log, "reference ops n=%d median %.6f s; traced ops n=%d median %.6f s (both at reference host speed); %d profile samples, %.3f s of CPU\n",
		len(refWalls), refWall, len(tracedOps), tracedWall, len(samples), float64(total)/1e9)

	// Every core: the bytes must not move, and the speed-up over one
	// worker is the scaling number.
	r.release()
	nproc := runtime.NumCPU()
	par, err := r.do(ctx, nproc, tr, "rep(workers=nproc)")
	r.release = holdSerial()
	if err != nil {
		return nil, err
	}
	m["sched.par_eff"] = refWall / (float64(nproc) * par.norm)

	end = tr.begin("layer passes")
	n, failures, err := r.w.layerMetrics(ctx, tr, refWalls, m)
	end()
	r.attempted += n
	if err != nil {
		r.failed++
		return nil, err
	}
	if m["cdn.requests"] == 0 && m["cdn.cpu_share"] > 0 {
		failures = append(failures, "CPU samples in cdn on a workload without the cache tier")
	}
	r.count("layer passes", failures)

	probeDur := 500 * time.Millisecond
	if r.o.smoke {
		probeDur = 2 * time.Millisecond
	}
	end = tr.begin("probes")
	probes, err := runProbes(r.o.seed, probeDur, tr)
	end()
	if err != nil {
		return nil, err
	}
	for name, v := range probes {
		m[name] = v
	}
	m["host.calib_fnv1a_ms"] = median(r.host.calibs)
	m["host.nproc"] = float64(nproc)
	m["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))

	path, err := tr.writeChrome(r.o.outDir)
	if err != nil {
		return nil, err
	}
	self := selfByName(tr.spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(r.log, "spans written to %s; self time by span:\n", path)
	for _, name := range names {
		fmt.Fprintf(r.log, "  %-28s %.6f s\n", name, self[name])
	}
	return m, nil
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

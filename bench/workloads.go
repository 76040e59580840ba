package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/cdn"
	"repro/internal/expcache"
	"repro/internal/experiments"
	"repro/internal/fleet"
)

// The four workloads. Sizes are part of the definition: changing one
// changes what every recorded number means. Each workload stresses a
// different set of layers and leaves others idle, so that an
// optimisation has one workload that exercises it and one on which the
// prediction is "no change" (see README.md for the layer table).

// workloadWhy is the one-line reason each workload exists, in running
// order; BENCHMARK.json repeats it.
var workloadWhy = []struct{ name, why string }{
	{"fleet_mixed", "200k sessions in 24-client cells, 5% full players: simnet's cell engine and player.Cohort do the work; cdn, the vtime engine and both memo layers are idle"},
	{"fleet_flashcrowd", "100k sessions, 80% on cell 0, cache tier on: the vtime engine and its hand-off, cdn.Resolve on every request, misses over StartVia backhaul"},
	{"report_cold", "the paper's 12 services x 14 traces matrix from a cold session memo: scan engine, full Results, analysis and text rendering; bypasses every fleet mechanism"},
	{"sweep_warm", "a 100k-session sweep point served from a warm CellCache: zero simulation, so fingerprints, lookups, aggregate merges and rendering are all that is left"},
}

// opResult is the outcome of one timed operation.
type opResult struct {
	wall     time.Duration // simulate + render; verification is outside
	norm     float64       // wall in seconds, scaled to the reference host speed (set by the runner)
	sessions float64       // simulated sessions the op completed (or served from the memo)
	out      []byte        // the rendered output the op's bytes are compared by
	failures []string      // correctness checks the op failed
}

// workload is one benchmark scenario. The benchmark is its only caller.
type workload interface {
	// setup builds everything a timed op needs that a user would pay for
	// once: it drops the process-wide memo, constructs origins and runs
	// a warm-up. It may be called again; the last call's state is kept.
	setup(ctx context.Context, tr *tracer) error
	// op runs one operation on the given number of workers.
	op(ctx context.Context, workers int, tr *tracer) (opResult, error)
	// layerMetrics adds the per-layer numbers only this workload can
	// supply to m, running extra operations where it needs to, and
	// returns how many it ran and which checks failed. refWalls are the
	// wall times of the untraced reference ops, in seconds.
	layerMetrics(ctx context.Context, tr *tracer, refWalls []float64, m map[string]float64) (attempted int, failures []string, err error)
}

// sizing scales the workloads; full is the benchmark, smoke is the unit
// tests' (-smoke) few-second variant.
type sizing struct {
	mixedSessions, flashSessions, sweepSessions int
	reportIDs                                   []string // nil = every experiment
}

var (
	fullSizing  = sizing{mixedSessions: 200_000, flashSessions: 100_000, sweepSessions: 100_000}
	smokeSizing = sizing{mixedSessions: 2_000, flashSessions: 2_000, sweepSessions: 2_000, reportIDs: []string{"fig6", "fig7"}}
)

func newWorkload(name string, seed int64, sz sizing) (workload, error) {
	switch name {
	case "fleet_mixed":
		// Explicit, non-sentinel values: FidelityFull 0 would mean "all
		// full players" (see README.md, known defects).
		return &fleetWorkload{cfg: fleet.Config{Seed: seed, Sessions: sz.mixedSessions, FidelityFull: 0.05}}, nil
	case "fleet_flashcrowd":
		return &fleetWorkload{cfg: fleet.Config{
			Seed: seed, Sessions: sz.flashSessions, Hotspot: 0.8, FidelityFull: 0.02,
			Cache: &cdn.CacheConfig{EdgeBytes: 64 << 20, MetroBytes: 2 << 30, TTLSec: 6 * 3600, ColdCells: "0-3", FailCell: 5, FailAtSec: 60},
		}}, nil
	case "report_cold":
		return &reportWorkload{ids: sz.reportIDs}, nil
	case "sweep_warm":
		return &sweepWorkload{cfg: fleet.Config{Seed: seed, Sessions: sz.sweepSessions, FidelityFull: 0.05}}, nil
	}
	names := make([]string, len(workloadWhy))
	for i, w := range workloadWhy {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runFleet is one fleet run plus its JSON rendering, the unit every
// fleet-shaped op times.
func runFleet(ctx context.Context, cfg fleet.Config, opts fleet.RunOptions, tr *tracer) (*fleet.Report, opResult, error) {
	start := time.Now()
	end := tr.begin("fleet.Run")
	rep, err := fleet.RunWithOptions(ctx, cfg, opts)
	end()
	if err != nil {
		return nil, opResult{}, err
	}
	end = tr.begin("render")
	js, err := rep.JSON()
	end()
	if err != nil {
		return nil, opResult{}, err
	}
	res := opResult{wall: time.Since(start), sessions: float64(cfg.Sessions), out: js}
	end = tr.begin("verify")
	res.failures = checkFleetReport(cfg, rep)
	end()
	return rep, res, nil
}

// checkFleetReport holds a report to the invariants that need no
// oracle. cfg is the config as requested (not normalized).
func checkFleetReport(cfg fleet.Config, rep *fleet.Report) []string {
	var fails []string
	failf := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	var bySvc int64
	for _, s := range rep.Services {
		bySvc += s.Sessions
	}
	if rep.Sessions != int64(cfg.Sessions) || rep.Sessions != rep.FullSessions+rep.BackgroundSessions || rep.Sessions != bySvc {
		failf("sessions %d, requested %d, full+background %d, sum over services %d", rep.Sessions, cfg.Sessions, rep.FullSessions+rep.BackgroundSessions, bySvc)
	}
	if rep.Started > rep.Sessions {
		failf("started %d > sessions %d", rep.Started, rep.Sessions)
	}
	if u := rep.EdgeUtilization; u.P90 > 1 || u.Over > 0 {
		failf("edge utilization p90 %.4f with %d cells over 1: more delivered than the edge can carry", u.P90, u.Over)
	}
	// The tier is drawn per client, so allow the draw's own spread (three
	// binomial standard deviations) on top of the 1% band.
	p, n := cfg.FidelityFull, float64(rep.Sessions)
	if mix := float64(rep.FullSessions) / n; math.Abs(mix-p) > 0.01+3*math.Sqrt(p*(1-p)/n) {
		failf("full-player share %.4f, requested %.4f", mix, p)
	}
	if (cfg.Cache != nil) != (rep.CDN != nil) {
		failf("cache tier requested %v, reported %v", cfg.Cache != nil, rep.CDN != nil)
	}
	if rep.CDN != nil && rep.CDN.EdgeHits+rep.CDN.EdgeMisses == 0 {
		failf("cache tier on but no request reached it")
	}
	return fails
}

// simMetrics copies a report's simulated statistics into m.
func simMetrics(m map[string]float64, rep *fleet.Report) {
	m["sim.started"] = float64(rep.Started)
	m["sim.full_sessions"] = float64(rep.FullSessions)
	m["sim.background_sessions"] = float64(rep.BackgroundSessions)
	m["sim.total_bytes"] = rep.TotalBytes
	if c := rep.CDN; c != nil {
		m["cdn.requests"] = float64(c.EdgeHits + c.EdgeMisses)
		m["cdn.edge_hit_ratio"] = c.HitRatio
		m["cdn.backhaul_bytes"] = c.BackhaulBytes
	}
}

// fleetWorkload is fleet_mixed and fleet_flashcrowd: fleet.Run on a
// seeded population, nothing memoized.
type fleetWorkload struct {
	cfg  fleet.Config
	last *fleet.Report
}

func (w *fleetWorkload) setup(ctx context.Context, tr *tracer) error {
	expcache.Default.Reset() // origins are rebuilt, as after process start
	warm := w.cfg
	warm.Sessions /= 10 // the warm-up is a tenth-size fleet
	_, res, err := runFleet(ctx, warm, fleet.RunOptions{Workers: 1}, tr)
	if err == nil && len(res.failures) > 0 {
		err = fmt.Errorf("warm-up: %s", strings.Join(res.failures, "; "))
	}
	return err
}

func (w *fleetWorkload) op(ctx context.Context, workers int, tr *tracer) (opResult, error) {
	rep, res, err := runFleet(ctx, w.cfg, fleet.RunOptions{Workers: workers}, tr)
	w.last = rep
	return res, err
}

func (w *fleetWorkload) layerMetrics(_ context.Context, _ *tracer, _ []float64, m map[string]float64) (int, []string, error) {
	simMetrics(m, w.last)
	return 0, nil, nil
}

// reportWorkload is report_cold: every paper experiment from an empty
// session memo, rendered as vodreport renders it. The seed has no
// effect: the paper's matrix is fixed.
type reportWorkload struct {
	ids  []string
	last []experiments.Result
}

func (w *reportWorkload) setup(ctx context.Context, tr *tracer) error {
	_, err := w.op(ctx, 1, tr)
	return err
}

func (w *reportWorkload) op(ctx context.Context, workers int, tr *tracer) (opResult, error) {
	start := time.Now()
	expcache.Default.Reset()
	end := tr.begin("experiments.RunAll")
	results, err := experiments.RunAll(ctx, experiments.Options{Workers: workers, IDs: w.ids})
	end()
	if err != nil {
		return opResult{}, err
	}
	end = tr.begin("render")
	out := renderReport(results)
	end()
	res := opResult{wall: time.Since(start), out: out}
	st := expcache.Default.Snapshot()
	res.sessions = float64(st.Misses + st.Bypass)
	if res.sessions == 0 {
		return res, fmt.Errorf("a cold report simulated no session: the memo was not reset")
	}
	for _, r := range results {
		if len(r.Tables)+len(r.Plots) == 0 {
			res.failures = append(res.failures, fmt.Sprintf("experiment %s produced no output", r.ID))
		}
	}
	w.last = results
	return res, nil
}

// renderReport is vodreport's -stable body: tables as markdown, plots
// fenced, no timings.
func renderReport(results []experiments.Result) []byte {
	var b bytes.Buffer
	for _, r := range results {
		fmt.Fprintf(&b, "\n## %s — %s\n\n", r.ID, r.Title)
		for _, t := range r.Tables {
			b.WriteString(t.Markdown())
			b.WriteString("\n")
		}
		for _, p := range r.Plots {
			b.WriteString("```\n" + p + "```\n\n")
		}
	}
	return b.Bytes()
}

func (w *reportWorkload) layerMetrics(ctx context.Context, tr *tracer, _ []float64, m map[string]float64) (int, []string, error) {
	// The cold per-experiment times come from the last cold op.
	for _, r := range w.last {
		ms := float64(r.Elapsed.Nanoseconds()) / 1e6
		switch r.ID {
		case "table1":
			m["experiments.table1_ms"] = ms
		case "table2":
			m["experiments.table2_ms"] = ms
		default:
			m["experiments.max_other_ms"] = math.Max(m["experiments.max_other_ms"], ms)
		}
	}
	cold := renderReport(w.last)

	// Warm beside cold: the same report with every session already in
	// the memo, so what remains is analysis and rendering.
	const warmReps = 3
	var walls []float64
	var fails []string
	for i := 0; i < warmReps; i++ {
		start := time.Now()
		end := tr.begin("experiments.RunAll(warm)")
		results, err := experiments.RunAll(ctx, experiments.Options{Workers: 1, IDs: w.ids})
		end()
		if err != nil {
			return i, fails, err
		}
		out := renderReport(results)
		walls = append(walls, time.Since(start).Seconds())
		if !bytes.Equal(out, cold) {
			fails = append(fails, "warm report bytes differ from the cold report")
		}
	}
	m["expcache.warm_report_s"] = median(walls)
	return warmReps, fails, nil
}

// sweepWorkload is sweep_warm. Set-up is the cold, cache-filling run
// (the memo's write path); the timed op is the same config served warm
// (the read path).
type sweepWorkload struct {
	cfg      fleet.Config
	cache    *fleet.CellCache
	cold     []byte        // the cold run's report bytes
	coldWall time.Duration // the last set-up's cold run
	built    fleet.CellCacheStats
	last     *fleet.Report
}

func (w *sweepWorkload) setup(ctx context.Context, tr *tracer) error {
	expcache.Default.Reset()
	w.cache = fleet.NewCellCache()
	_, res, err := runFleet(ctx, w.cfg, fleet.RunOptions{Workers: 1, CellCache: w.cache}, tr)
	if err != nil {
		return err
	}
	if len(res.failures) > 0 {
		return fmt.Errorf("cold run: %s", strings.Join(res.failures, "; "))
	}
	w.cold, w.coldWall, w.built = res.out, res.wall, w.cache.Stats()
	return nil
}

func (w *sweepWorkload) op(ctx context.Context, workers int, tr *tracer) (opResult, error) {
	rep, res, err := runFleet(ctx, w.cfg, fleet.RunOptions{Workers: workers, CellCache: w.cache}, tr)
	if err != nil {
		return res, err
	}
	w.last = rep
	if !bytes.Equal(res.out, w.cold) {
		res.failures = append(res.failures, "warm report bytes differ from the cold run's")
	}
	if st := w.cache.Stats(); st.Builds != w.built.Builds {
		res.failures = append(res.failures, fmt.Sprintf("warm op simulated %d cells", st.Builds-w.built.Builds))
	}
	return res, nil
}

func (w *sweepWorkload) layerMetrics(ctx context.Context, tr *tracer, refWalls []float64, m map[string]float64) (int, []string, error) {
	simMetrics(m, w.last)
	var fails []string

	// The warm op's tail, nearest rank: with 200 ops or more, ten lie
	// beyond it.
	sorted := append([]float64(nil), refWalls...)
	sort.Float64s(sorted)
	m["fleet.sweep_op_p95_ms"] = sorted[(len(sorted)*95+99)/100-1] * 1e3

	// One warm op in isolation gives the per-op cache counts.
	before := w.cache.Stats()
	res, err := w.op(ctx, 1, tr)
	if err != nil {
		return 0, nil, err
	}
	fails = append(fails, res.failures...)
	after := w.cache.Stats()
	m["fleet.cellcache_builds"] = float64(w.built.Builds)
	m["fleet.cellcache_hits"] = float64(after.Hits - before.Hits)
	m["fleet.cellcache_skipped"] = float64(after.Skipped - before.Skipped)

	// The same config with no cache at all: the bytes must match, and
	// the difference to the cold cached run is what filling costs.
	_, plain, err := runFleet(ctx, w.cfg, fleet.RunOptions{Workers: 1}, tr)
	if err != nil {
		return 1, fails, err
	}
	fails = append(fails, plain.failures...)
	if !bytes.Equal(plain.out, w.cold) {
		fails = append(fails, "report bytes with the cell cache differ from a plain fleet.Run")
	}
	m["fleet.cellcache_build_overhead_frac"] = w.coldWall.Seconds()/plain.wall.Seconds() - 1

	// A perturbed sweep point: the layout changes, most cells repeat.
	point := w.cfg
	point.Hotspot = 0.3
	_, partial, err := runFleet(ctx, point, fleet.RunOptions{Workers: 1, CellCache: w.cache}, tr)
	if err != nil {
		return 2, fails, err
	}
	fails = append(fails, partial.failures...)
	m["fleet.partial_point_s"] = partial.wall.Seconds()
	return 3, fails, nil
}

// sha48 folds an output's SHA-256 into a number a float64 holds exactly,
// so that "the bytes are the same" can be compared as a metric.
func sha48(out []byte) float64 {
	sum := sha256.Sum256(out)
	var v uint64
	for _, b := range sum[:6] {
		v = v<<8 | uint64(b)
	}
	return float64(v)
}

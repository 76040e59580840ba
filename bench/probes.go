package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cdn"
	"repro/internal/expcache"
	"repro/internal/fleet"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/player"
	"repro/internal/sched"
	"repro/internal/services"
	"repro/internal/simnet"
)

// Layer probes: the benchmark drives each layer's public functions with
// seeded, workload-shaped inputs and times the calls. They run in every
// traced run, so a probe's number does not depend on the workload it is
// printed beside.

// measure calls op(n) with growing n until one call lasts at least
// minDur (testing.Benchmark's scaling rule) and returns the wall time
// and heap allocations of that call per unit of n.
func measure(minDur time.Duration, op func(n int)) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	for n := 1; ; {
		runtime.ReadMemStats(&before)
		start := time.Now()
		op(n)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if elapsed >= minDur || n >= 1<<30 {
			return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
		}
		grow := 100.0
		if elapsed > 0 {
			grow = math.Min(grow, 1.2*float64(minDur)/float64(elapsed))
		}
		n = int(math.Ceil(float64(n) * math.Max(grow, 2)))
	}
}

// probeSet holds the inputs the probes share.
type probeSet struct {
	seed   int64
	minDur time.Duration
	traces []*netem.Profile
	svc    *services.Service
	org    *origin.Origin
	out    map[string]float64
	sink   float64 // keeps results alive so calls are not optimised away
}

// runProbes runs every layer probe and returns the metrics by name.
func runProbes(seed int64, minDur time.Duration, tr *tracer) (map[string]float64, error) {
	svc := services.ByName("H1")
	org, err := svc.Origin()
	if err != nil {
		return nil, err
	}
	p := &probeSet{seed: seed, minDur: minDur, traces: netem.CellularSet(), svc: svc, org: org, out: map[string]float64{}}
	for _, batch := range []struct {
		name string
		run  func() error
	}{
		{"probe.netem", p.probeNetem},
		{"probe.simnet", p.probeSimnet},
		{"probe.player", p.probePlayer},
		{"probe.cdn", p.probeCDN},
		{"probe.fleet", p.probeFleet},
		{"probe.sched", p.probeSched},
		{"probe.expcache", p.probeExpcache},
	} {
		end := tr.begin(batch.name)
		err := batch.run()
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", batch.name, err)
		}
	}
	return p.out, nil
}

// probeNetem reads every cellular trace through a cursor at monotone times,
// the access pattern of an access link under the cell engine.
func (p *probeSet) probeNetem() error {
	cursors := make([]netem.Cursor, len(p.traces))
	times := make([]float64, len(p.traces))
	for i, tr := range p.traces {
		cursors[i] = tr.Cursor()
	}
	rng := rand.New(rand.NewSource(p.seed))
	steps := make([]float64, 1024)
	for i := range steps {
		steps[i] = 0.05 + rng.Float64()
	}
	var acc float64
	ns, _ := measure(p.minDur, func(n int) {
		for i := 0; i < n; i++ {
			k := i % len(cursors)
			v, next := cursors[k].ValueNext(times[k])
			acc += v + next
			times[k] += steps[i%len(steps)]
		}
	})
	p.sink += acc
	p.out["netem.cursor_ns_per_read"] = ns
	return nil
}

// drain runs one fan-in cycle: every connection starts one transfer
// (odd-numbered ones through upstream when it is set), then the network
// steps until all have completed. mid, when set, runs once after the
// first step, while the flows are live.
func drain(n *simnet.Network, conns []*simnet.Conn, sizes []float64, upstream *simnet.AccessLink, mid func()) {
	for j, c := range conns {
		if upstream != nil && j%2 == 1 {
			c.StartVia(sizes[j], 0.08, upstream, nil)
		} else {
			c.Start(sizes[j], nil)
		}
	}
	for delivered := 0; delivered < len(conns); {
		done := n.Step(1e12)
		delivered += len(done)
		for _, tr := range done {
			n.Recycle(tr)
		}
		if mid != nil {
			mid()
			mid = nil
		}
	}
}

// probeSimnet times one transfer completion ("event") in each engine
// regime the workloads reach: the scan engine of the paper harness (8
// flows on one cellular link), the cell engine of a fleet cell (24
// access links under a 40 Mbit/s edge), the virtual-time engine of a
// flash crowd (512 flows), and the cell shape with half the responses
// riding a shared backhaul link.
func (p *probeSet) probeSimnet() error {
	rng := rand.New(rand.NewSource(p.seed))
	sizes := make([]float64, 512)
	for i := range sizes {
		sizes[i] = math.Round(rng.Float64()*2e6) + 1e5
	}
	cellCfg := simnet.DefaultConfig()
	cellCfg.Engine = simnet.EngineCell
	edge := func() *simnet.Network { return simnet.New(cellCfg, netem.Constant("edge", 40e6, 1000)) }
	viaAccess := func(n *simnet.Network, flows int) []*simnet.Conn {
		conns := make([]*simnet.Conn, flows)
		for i := range conns {
			conns[i] = n.DialVia(n.NewAccessLink(p.traces[i%len(p.traces)]))
		}
		return conns
	}
	scanNet, cellNet, vtimeNet, backNet := simnet.New(simnet.DefaultConfig(), p.traces[4]), edge(), edge(), edge()
	scanConns := make([]*simnet.Conn, 8)
	for i := range scanConns {
		scanConns[i] = scanNet.Dial()
	}
	for _, r := range []struct {
		name     string
		net      *simnet.Network
		conns    []*simnet.Conn
		upstream *simnet.AccessLink
		onEngine func() bool
	}{
		{"scan", scanNet, scanConns, nil, func() bool { return !scanNet.CellActive() && !scanNet.VTimeActive() }},
		{"cell", cellNet, viaAccess(cellNet, 24), nil, cellNet.CellActive},
		{"vtime", vtimeNet, viaAccess(vtimeNet, 512), nil, vtimeNet.VTimeActive},
		{"backhaul", backNet, viaAccess(backNet, 24), backNet.NewAccessLink(netem.Constant("backhaul", 200e6, 1000)), backNet.CellActive},
	} {
		r := r
		onEngine := false
		drain(r.net, r.conns, sizes, r.upstream, func() { onEngine = r.onEngine() }) // also warms heaps and the free list
		if !onEngine {
			return fmt.Errorf("simnet %s probe: the flows are not on the engine the probe is named after", r.name)
		}
		ns, allocs := measure(p.minDur, func(n int) {
			for i := 0; i < n; i++ {
				drain(r.net, r.conns, sizes, r.upstream, nil)
			}
		})
		events := float64(len(r.conns))
		p.out["simnet."+r.name+"_ns_per_event"] = ns / events
		if r.upstream == nil {
			p.out["simnet."+r.name+"_allocs_per_event"] = allocs / events
		}
	}
	return nil
}

// backgroundConfig derives the coarse tier's view of a service from its
// origin, as the fleet does for its cohorts.
func backgroundConfig(org *origin.Origin, watch float64) player.BackgroundConfig {
	declared := make([]float64, len(org.Pres.Video))
	for i, r := range org.Pres.Video {
		declared[i] = r.DeclaredBitrate
	}
	return player.BackgroundConfig{
		Declared:        declared,
		SegmentDuration: org.Pres.Video[0].SegmentDuration,
		MediaDuration:   org.Pres.Duration,
		SessionDuration: watch,
		SafetyFactor:    1.6,
	}
}

// probePlayer times one 120 s H1 session on cellular trace 5 in each client
// tier: the full state machine with its Result (the paper harness), the
// lean state machine (fleet full-fidelity members), and one member of a
// 24-member cohort (the fleet's background tier).
func (p *probeSet) probePlayer() error {
	const watch = 120
	cfg := services.Resolve(p.svc.Player, watch, nil)
	var failed error
	session := func(lean bool) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				sess, err := player.NewSession(cfg, p.org, simnet.New(simnet.DefaultConfig(), p.traces[4]))
				if err != nil {
					failed = err
					return
				}
				if lean {
					sess.SetLean()
				}
				if res := sess.Run(); res != nil {
					p.sink += float64(len(res.Downloads))
				}
			}
		}
	}
	ns, allocs := measure(p.minDur, session(false))
	p.out["player.session_full_us"], p.out["player.session_full_allocs"] = ns/1e3, allocs
	ns, allocs = measure(p.minDur, session(true))
	p.out["player.session_lean_us"], p.out["player.session_lean_allocs"] = ns/1e3, allocs
	if failed != nil {
		return failed
	}

	const members = 24
	rng := rand.New(rand.NewSource(p.seed))
	starts := make([]float64, members)
	for i := range starts {
		starts[i] = rng.Float64() * 60
	}
	netCfg := simnet.DefaultConfig()
	netCfg.Engine = simnet.EngineCell
	bcfg := backgroundConfig(p.org, watch)
	ns, allocs = measure(p.minDur, func(n int) {
		for i := 0; i < n; i++ {
			net := simnet.New(netCfg, netem.Constant("edge", 40e6, 1000))
			co := player.NewCohort(net)
			for m := 0; m < members; m++ {
				j := co.Add(bcfg)
				co.SetStartAt(j, starts[m])
				co.SetAccessLink(j, net.NewAccessLink(p.traces[m%len(p.traces)]))
			}
			co.SetObserver(func(_ int, s *player.Summary) { p.sink += s.PlayedSec })
			g := player.NewGroup()
			if err := g.AddCohort(co); err != nil {
				failed = err
				return
			}
			g.Run()
		}
	})
	p.out["player.cohort_us_per_member"] = ns / 1e3 / members
	p.out["player.cohort_allocs_per_member"] = allocs / members
	return failed
}

// probeCDN resolves a seeded, skewed request stream (popular titles, low
// tracks and early segments dominate) against one cold cell with finite
// edge nodes and a metro tier, 24 clients taking turns. The hit ratio is
// that of the first pass over the stream, so it repeats exactly.
func (p *probeSet) probeCDN() error {
	cfg := cdn.CacheConfig{EdgeBytes: 64 << 20, MetroBytes: 2 << 30, TTLSec: 6 * 3600}.Normalized()
	net := simnet.New(simnet.DefaultConfig(), netem.Constant("edge", 40e6, 1000))
	cell := cdn.NewCell(cfg, 0, cdn.NewMetro(cfg), net.NewAccessLink(netem.Constant("backhaul", cfg.BackhaulMbps*1e6, 1000)))
	clients := make([]*cdn.Client, 24)
	for i := range clients {
		clients[i] = cell.NewClient(i)
	}
	rng := rand.New(rand.NewSource(p.seed))
	title := rand.NewZipf(rng, 1.5, 1, 11)
	track := rand.NewZipf(rng, 2, 1, 5)
	index := rand.NewZipf(rng, 1.5, 2, 299)
	type request struct {
		obj  cdn.Object
		size float64
	}
	reqs := make([]request, 1<<16)
	for i := range reqs {
		reqs[i] = request{
			obj:  cdn.Object{Catalog: int32(title.Uint64()), Kind: cdn.KindVideo, Track: int32(track.Uint64()), Index: int32(index.Uint64())},
			size: 1e5 + math.Round(rng.Float64()*9e5),
		}
	}
	now, served := 0.0, 0
	resolve := func(n int) {
		for i := 0; i < n; i++ {
			r := reqs[served%len(reqs)]
			route := clients[served%len(clients)].Resolve(now, r.obj, r.size)
			p.sink += route.ExtraLatency
			now += 0.01
			served++
		}
	}
	resolve(len(reqs))
	p.out["cdn.probe_edge_hit_ratio"] = cell.Stats.HitRatio()
	p.out["cdn.resolve_ns"], p.out["cdn.resolve_allocs"] = measure(p.minDur, resolve)
	return nil
}

// probeFleetConfig is the small cached-tier fleet the fleet probes draw
// and render: big enough to fill every section of the report.
func probeFleetConfig(seed int64) fleet.Config {
	return fleet.Config{
		Seed: seed, Sessions: 2400, FidelityFull: 0.05, FocusSessions: 2,
		Cache: &cdn.CacheConfig{EdgeBytes: 64 << 20, MetroBytes: 2 << 30, TTLSec: 6 * 3600, ColdCells: "0-3"},
	}
}

// probeFleet times the workload draw and the two renderings of a report.
func (p *probeSet) probeFleet() error {
	cfg, err := probeFleetConfig(p.seed).Normalized()
	if err != nil {
		return err
	}
	ns, _ := measure(p.minDur, func(n int) {
		for i := 0; i < n; i++ {
			p.sink += float64(len(fleet.Workload(cfg)))
		}
	})
	p.out["fleet.workload_ns_per_client"] = ns / float64(cfg.Sessions)

	rep, err := fleet.Run(context.Background(), cfg, 1)
	if err != nil {
		return err
	}
	var failed error
	ns, _ = measure(p.minDur, func(n int) {
		for i := 0; i < n; i++ {
			js, err := rep.JSON()
			if err != nil {
				failed = err
				return
			}
			p.sink += float64(len(js))
		}
	})
	p.out["fleet.render_json_ms"] = ns / 1e6
	ns, _ = measure(p.minDur, func(n int) {
		for i := 0; i < n; i++ {
			p.sink += float64(len(renderFleetText(rep)))
		}
	})
	p.out["fleet.render_text_ms"] = ns / 1e6
	return failed
}

// renderFleetText renders a report the way vodfleet prints it.
func renderFleetText(rep *fleet.Report) string {
	text := rep.Summary().String() + rep.CDFPlots(60, 10) + rep.CellTable().String()
	if t := rep.CDNTable(); t != nil {
		text += t.String()
	}
	return text
}

// probeSched times the work-stealing layer's cost per unit with units that
// do nothing, at the machine's full worker count.
func (p *probeSet) probeSched() error {
	const units = 100_000
	var failed error
	ns, _ := measure(p.minDur, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := sched.Global.RunStealing(context.Background(), units, runtime.NumCPU(), sched.StealOptions{}, func(int) error { return nil }); err != nil {
				failed = err
				return
			}
		}
	})
	p.out["sched.steal_ns_per_unit"] = ns / units
	return failed
}

// probeExpcache times the two things a memo layer adds to every lookup:
// fingerprinting a normalized fleet config, and serving a session from
// a private, already-hot cache.
func (p *probeSet) probeExpcache() error {
	cfg, err := probeFleetConfig(p.seed).Normalized()
	if err != nil {
		return err
	}
	var failed error
	ns, _ := measure(p.minDur, func(n int) {
		for i := 0; i < n; i++ {
			key, err := expcache.Fingerprint("fleet", expcache.EngineVersion, cfg)
			if err != nil {
				failed = err
				return
			}
			p.sink += float64(key[0])
		}
	})
	p.out["expcache.fingerprint_ns"] = ns

	cache := expcache.New()
	if _, err := cache.RunService(p.svc, p.traces[4], 120, nil); err != nil {
		return err
	}
	ns, _ = measure(p.minDur, func(n int) {
		for i := 0; i < n; i++ {
			res, err := cache.RunService(p.svc, p.traces[4], 120, nil)
			if err != nil {
				failed = err
				return
			}
			p.sink += res.StartupDelay
		}
	})
	p.out["expcache.hit_ns"] = ns
	return failed
}

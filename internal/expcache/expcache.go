// Package expcache routes every simulated VOD session of the paper's
// evaluation through one place: it runs each session directly and
// counts it, and it shares origins by content. The evaluation is a fixed
// grid rendered once per process, so sessions are not memoized — a
// result lives only as long as the experiment that reads it. Origins
// are: building one generates and encodes a whole presentation, and
// most experiments stream the same twelve services.
//
// Origin keys never include wall-clock time, hostnames or paths — only
// content: the service's media config, build options and origin
// options, through Fingerprint. Fingerprint, Memo and EngineVersion are
// also what the fleet's CellCache keys its cells with. See DESIGN.md §8.
package expcache

import (
	"sync/atomic"

	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/player"
	"repro/internal/services"
	"repro/internal/simnet"
)

// EngineVersion stamps every CellCache key, and the fleet's golden
// ledger (TestFleetReportGolden) is keyed by it. Bump it whenever a
// change anywhere in the simulation stack (player, simnet, netem, media
// generation, adaptation, origin) can alter any session result. The
// committed REPORT.md is the ground truth a bumped engine must be
// re-verified against.
const EngineVersion = "11"

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Misses are sessions run: every Run, RunNet and RunService call
	// simulates its session.
	Misses int64
	// MemHits and Bypass are always 0. They stay only because bench/
	// reports them (ROADMAP 1 (m)).
	MemHits, Bypass int64
	// OriginBuilds and OriginHits count origin constructions and reuses.
	OriginBuilds, OriginHits int64
}

// Cache counts session runs and memoizes origins.
type Cache struct {
	sessions atomic.Int64
	origins  Memo[Key, *origin.Origin]
}

// New returns an empty cache.
func New() *Cache { return &Cache{} }

// Default is the process-wide cache every experiment routes through.
var Default = New()

// Reset drops every memoized origin and zeroes the counters. Not safe
// to call concurrently with session runs.
func (c *Cache) Reset() {
	c.origins.Reset()
	c.sessions.Store(0)
}

// Snapshot returns the current counters.
func (c *Cache) Snapshot() Stats {
	ob, oh, ow := c.origins.Stats()
	return Stats{
		Misses:       c.sessions.Load(),
		OriginBuilds: ob,
		OriginHits:   oh + ow,
	}
}

// RunNet runs the session of an already-resolved player config
// (duration override and mutator applied) over p with the given network
// model config.
func (c *Cache) RunNet(cfg player.Config, org *origin.Origin, p *netem.Profile, netCfg simnet.Config) (*player.Result, error) {
	c.sessions.Add(1)
	sess, err := player.NewSession(cfg, org, simnet.New(netCfg, p))
	if err != nil {
		return nil, err
	}
	return sess.Run(), nil
}

// Run is the counted counterpart of services.RunWithOrigin: it resolves
// the config exactly as a direct run would (duration override, then
// mutator) and runs the session over the default network model.
func (c *Cache) Run(cfg player.Config, org *origin.Origin, p *netem.Profile, dur float64, mutate func(*player.Config)) (*player.Result, error) {
	return c.RunNet(services.Resolve(cfg, dur, mutate), org, p, simnet.DefaultConfig())
}

// Origin returns the service's origin, building it at most once per
// distinct content (media config, build options, origin options) — two
// services serving identical content share one origin.
func (c *Cache) Origin(svc *services.Service) (*origin.Origin, error) {
	key, err := Fingerprint(svc.Media, svc.Build, svc.OriginOptions)
	if err != nil {
		return svc.Origin() // unreachable for plain-data configs
	}
	return c.origins.Get(key, svc.Origin)
}

// RunService is the counted counterpart of Service.Run, over the
// memoized origin.
func (c *Cache) RunService(svc *services.Service, p *netem.Profile, dur float64, mutate func(*player.Config)) (*player.Result, error) {
	org, err := c.Origin(svc)
	if err != nil {
		return nil, err
	}
	return c.Run(svc.Player, org, p, dur, mutate)
}

// Package-level conveniences on Default.

// Run calls Default.Run.
func Run(cfg player.Config, org *origin.Origin, p *netem.Profile, dur float64, mutate func(*player.Config)) (*player.Result, error) {
	return Default.Run(cfg, org, p, dur, mutate)
}

// RunNet calls Default.RunNet.
func RunNet(cfg player.Config, org *origin.Origin, p *netem.Profile, netCfg simnet.Config) (*player.Result, error) {
	return Default.RunNet(cfg, org, p, netCfg)
}

// RunService calls Default.RunService.
func RunService(svc *services.Service, p *netem.Profile, dur float64, mutate func(*player.Config)) (*player.Result, error) {
	return Default.RunService(svc, p, dur, mutate)
}

// Origin calls Default.Origin.
func Origin(svc *services.Service) (*origin.Origin, error) {
	return Default.Origin(svc)
}

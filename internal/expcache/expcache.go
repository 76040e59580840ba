// Package expcache is a content-addressed memoization layer for
// simulated VOD sessions. The paper's evaluation replays a fixed grid of
// (service, profile, duration, player config) sessions — many of them
// exact duplicates within and across experiments — and every session is
// a deterministic pure function of its inputs, so a session result can
// be cached under a canonical fingerprint of those inputs and reused
// instead of recomputed.
//
// The cache is one in-process singleflight Memo: each distinct session
// runs exactly once per process, and concurrent requests for the same
// key block on the single computation. Nothing is persisted — decoding
// a stored session costs what simulating it costs.
//
// Keys never include wall-clock time, hostnames or paths — only content:
// the fully defaulted player.Config (player.Config.Normalized, so a
// config spelled with zero values and one spelled with the explicit
// defaults share an entry), a content hash of the origin's presentation,
// the netem profile schedule, the simnet config, and EngineVersion.
// Sessions whose config carries a non-fingerprintable value (a
// RequestGate func) bypass the cache and run directly.
//
// Cached results are shared: callers must treat a *player.Result
// obtained through this package as read-only. See DESIGN.md §8.
package expcache

import (
	"sync/atomic"

	"repro/internal/manifest"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/player"
	"repro/internal/services"
	"repro/internal/simnet"
)

// EngineVersion stamps every cache key, and the fleet's golden ledger
// (TestFleetReportGolden) is keyed by it. Bump it whenever a change
// anywhere in the simulation stack (player, simnet, netem, media
// generation, adaptation, origin) can alter any session result. The
// committed REPORT.md is the ground truth a bumped engine must be
// re-verified against.
const EngineVersion = "11"

// Stats is a snapshot of the cache counters.
type Stats struct {
	// MemHits are sessions served from the memo.
	MemHits int64
	// Misses are sessions that were actually computed.
	Misses int64
	// Dedup are concurrent requests that joined an in-flight computation
	// of the same session instead of starting their own.
	Dedup int64
	// Bypass are sessions that skipped the cache (a non-fingerprintable
	// config).
	Bypass int64
	// OriginBuilds and OriginHits count origin constructions and reuses.
	OriginBuilds, OriginHits int64
}

// Cache memoizes session results and origins.
type Cache struct {
	bypass atomic.Int64

	sessions Memo[Key, *player.Result]
	origins  Memo[Key, *origin.Origin]
}

// New returns an empty cache.
func New() *Cache { return &Cache{} }

// Default is the process-wide cache every experiment routes through.
var Default = New()

// Reset drops every memoized session and origin and zeroes the
// counters. Not safe to call
// concurrently with session runs.
func (c *Cache) Reset() {
	c.sessions.Reset()
	c.origins.Reset()
	c.bypass.Store(0)
}

// Snapshot returns the current counters.
func (c *Cache) Snapshot() Stats {
	misses, hits, dedup := c.sessions.Stats()
	ob, oh, ow := c.origins.Stats()
	return Stats{
		MemHits:      hits,
		Misses:       misses,
		Dedup:        dedup,
		Bypass:       c.bypass.Load(),
		OriginBuilds: ob,
		OriginHits:   oh + ow,
	}
}

// presKey is the content hash an origin keeps of its presentation
// (origin.Origin.ContentKey): computed once per origin, dropped with it.
func presKey(p *manifest.Presentation) ([32]byte, error) { return Fingerprint(p) }

// sessionKey fingerprints one session: engine stamp, fully defaulted
// player config, origin content, profile schedule, network model config.
func sessionKey(cfg player.Config, org *origin.Origin, p *netem.Profile, netCfg simnet.Config) (Key, error) {
	norm, err := cfg.Normalized()
	if err != nil {
		// Invalid config: run directly so the caller sees the same error
		// the session constructor would produce.
		return Key{}, err
	}
	pk, err := org.ContentKey(presKey)
	if err != nil {
		return Key{}, err
	}
	return Fingerprint(EngineVersion, norm, Key(pk), p.Fingerprint(), netCfg)
}

// runSession computes a session directly (the cache-miss path).
func runSession(cfg player.Config, org *origin.Origin, p *netem.Profile, netCfg simnet.Config) (*player.Result, error) {
	sess, err := player.NewSession(cfg, org, simnet.New(netCfg, p))
	if err != nil {
		return nil, err
	}
	return sess.Run(), nil
}

// RunNet returns the session result for an already-resolved player
// config (duration override and mutator applied) over p with the given
// network model config, computing it at most once. The result is shared:
// treat it as read-only.
func (c *Cache) RunNet(cfg player.Config, org *origin.Origin, p *netem.Profile, netCfg simnet.Config) (*player.Result, error) {
	key, err := sessionKey(cfg, org, p, netCfg)
	if err != nil {
		c.bypass.Add(1)
		return runSession(cfg, org, p, netCfg)
	}
	return c.sessions.Get(key, func() (*player.Result, error) {
		return runSession(cfg, org, p, netCfg)
	})
}

// Run is the cached counterpart of services.RunWithOrigin: it resolves
// the config exactly as a direct run would (duration override, then
// mutator) and looks the session up under the resolved config's
// fingerprint.
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

// RunService is the cached counterpart of Service.Run.
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

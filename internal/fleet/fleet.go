// Package fleet runs population-scale multi-client streaming
// simulations: the "cellular tower serving a city block" view the
// single-session lab cannot express. A seeded workload model draws a
// population of clients — arrival time, service model (one of the 12
// paper services), per-client cellular access trace (one of the 14),
// and an early-abandon watch duration — and partitions them into cells.
// Each cell is one shared edge link (a simnet.Network) carrying every
// member's traffic: a client's chunk downloads are visible to its
// neighbours as cross traffic, arbitrated max-min fairly, and each
// client is additionally capped by its own cellular access link
// (simnet.AccessLink), so the achieved rate is min(access budget, fair
// edge share).
//
// Determinism contract (schema 2): every cell draws its own members
// from a private RNG stream derived from the fleet seed and the cell
// index (splitmix64), so a cell's bytes are a pure function of (config,
// cell index) — computable on any worker, in any order. Cells are
// grouped into fixed-size shards (cellsPerShard, a constant — NOT
// derived from the worker count) executed by the work-stealing
// scheduler layer (sched.RunStealing); each shard folds its cells in
// strict cell-index order, and completed shards fold into the fleet
// aggregate in strict shard-index order. The floating-point merge
// sequence is therefore a function of the cell count alone: the JSON
// report is byte-identical for any worker count and any steal schedule.
//
// Memory contract: per-session player.Results are never retained for
// the population. Non-focal full-fidelity sessions run lean — the
// player allocates no Result at all and streams an online Summary —
// and background-tier sessions are coarse analytic flows; both fold
// into fixed-size columnar aggregates (agg.go) the moment they finish.
// Full Results exist only for the seeded focus sample (FocusSessions
// members), so peak memory is O(workers · cell) + O(focus), independent
// of the fleet size.
//
// Fidelity contract: FidelityFull sets the per-client probability of
// running the full player state machine; the rest run the background
// tier — members of the cell's player.Cohort, an analytically-stepped
// session model that still moves every byte through the same
// water-filling network, so coarse and full sessions shape each other.
// The mix is drawn per client inside the cell's RNG stream.
package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/cdn"
	"repro/internal/expcache"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/player"
	"repro/internal/qoe"
	schedpkg "repro/internal/sched"
	"repro/internal/services"
	"repro/internal/simnet"
)

// sched is this package's reference to the process-wide scheduler.
// Tests swap it to control parallelism independently of the machine's
// core count.
var sched = schedpkg.Global

// cohortDone, when set, sees each cell's cohort once the cell has run.
// Tests set it to read what the cohort held (PeakLive).
var cohortDone func(*player.Cohort)

// cellsPerShard fixes the shard granularity. It is a constant on
// purpose: deriving it from the worker count would make the shard fold
// tree — and the report's floats — depend on parallelism. 16 cells
// (~384 sessions at the default cell size) is coarse enough to amortize
// steal traffic and fine enough to keep 8 workers busy on small fleets.
const cellsPerShard = 16

// Config parameterises a fleet run. Every field is plain data, so the
// whole config is fingerprintable (expcache) and a normalized config
// fully determines the report bytes. The worker count and steal
// schedule are deliberately NOT part of the config: they must never
// influence the output.
type Config struct {
	// Seed drives every random draw of the workload model.
	Seed int64
	// Sessions is the population size.
	Sessions int
	// ArrivalWindowSec spreads arrivals over [0, window): a Poisson
	// process conditioned on Sessions arrivals is exactly Sessions iid
	// uniforms, sorted. Default 600.
	ArrivalWindowSec float64
	// WatchSec is the full watch duration of a non-abandoning viewer.
	// Default 120.
	WatchSec float64
	// AbandonProb is the probability a viewer abandons early (the
	// paper's short-session reality); the abandoning viewer watches an
	// exponential duration with mean AbandonMeanSec, clamped to
	// [5, WatchSec]. Zero selects the default 0.35; negative disables
	// abandonment. Default mean 45.
	AbandonProb    float64
	AbandonMeanSec float64
	// ClientsPerCell sets how many clients share one edge link.
	// Default 24.
	ClientsPerCell int
	// EdgeMbps is the shared edge budget per cell in Mbit/s. Default 40.
	EdgeMbps float64
	// FidelityFull is the probability a client runs the full player
	// state machine; the rest run the coarse background tier. Zero
	// selects the default 1 (all full fidelity); negative means 0 (all
	// background).
	FidelityFull float64
	// FocusSessions is how many population members keep their full
	// player.Result and appear in the report's focus section. Focus
	// members are drawn from the seed; members that land on the
	// background tier are skipped. Default 0.
	FocusSessions int
	// Hotspot concentrates a fraction of the population on cell 0 — the
	// flash-crowd scenario (live-event premiere, cache-cold region)
	// where hundreds-to-thousands of flows share one edge link. The
	// remaining sessions are dealt round-robin across balanced cells as
	// usual. Zero keeps the fully balanced layout; clamped to [0, 0.95]
	// so the balanced remainder never vanishes entirely.
	Hotspot float64
	// Services is the session mix: each session draws uniformly from
	// this list (paper names, e.g. "H1"; duplicates weight the mix).
	// Empty means all 12 service models.
	Services []string
	// Cache enables the edge-cache tier (internal/cdn): per-cell edge
	// nodes behind a load balancer, per-shard metro caches, and a shared
	// backhaul link that cache misses traverse. nil means no cache tier
	// — every request is served at edge rate, exactly the pre-cache
	// behavior. A transparent config (unlimited warm caches, no TTL, no
	// cold cells, no failure) normalizes to nil so its report bytes are
	// identical to the cache-disabled tree.
	Cache *cdn.CacheConfig `json:"cache,omitempty"`
}

// Normalized fills every default; the normalized config is what the
// report echoes and what CellCache fingerprints. It is not idempotent —
// the negative FidelityFull/AbandonProb sentinels normalize to 0, which a
// second pass would read as "default" — so Run normalizes exactly once.
func (c Config) Normalized() (Config, error) {
	c, _, err := c.normalize()
	return c, err
}

// normalize is Normalized plus the parsed Cache.ColdCells set (nil
// without a cache tier), so a run parses the spec once.
func (c Config) normalize() (Config, map[int]bool, error) {
	if name := nonFinite(reflect.ValueOf(c)); name != "" {
		return c, nil, fmt.Errorf("fleet: %s must be finite", name)
	}
	if c.Sessions <= 0 {
		return c, nil, fmt.Errorf("fleet: Sessions must be positive")
	}
	if c.ArrivalWindowSec <= 0 {
		c.ArrivalWindowSec = 600
	}
	if c.WatchSec <= 0 {
		c.WatchSec = 120
	}
	switch {
	case c.AbandonProb == 0:
		c.AbandonProb = 0.35
	case c.AbandonProb < 0:
		c.AbandonProb = 0
	case c.AbandonProb > 1:
		c.AbandonProb = 1
	}
	if c.AbandonMeanSec <= 0 {
		c.AbandonMeanSec = 45
	}
	if c.ClientsPerCell <= 0 {
		c.ClientsPerCell = 24
	}
	if c.EdgeMbps <= 0 {
		c.EdgeMbps = 40
	}
	switch {
	case c.FidelityFull == 0:
		c.FidelityFull = 1
	case c.FidelityFull < 0:
		c.FidelityFull = 0
	case c.FidelityFull > 1:
		c.FidelityFull = 1
	}
	if c.FocusSessions < 0 {
		c.FocusSessions = 0
	}
	switch {
	case c.Hotspot < 0:
		c.Hotspot = 0
	case c.Hotspot > 0.95:
		c.Hotspot = 0.95
	}
	if len(c.Services) == 0 {
		all := services.All()
		names := make([]string, len(all))
		for i, s := range all {
			names[i] = s.Name
		}
		c.Services = names
	} else {
		c.Services = append([]string(nil), c.Services...)
	}
	for _, name := range c.Services {
		if services.ByName(name) == nil {
			return c, nil, fmt.Errorf("fleet: unknown service %q", name)
		}
	}
	var cold map[int]bool
	if c.Cache != nil {
		cc := c.Cache.Normalized()
		if cc.Transparent() {
			// An unlimited, warm, never-expiring cache with no failure
			// serves every media request from the edge — byte-identical
			// to no cache tier at all, so normalize it away.
			c.Cache = nil
		} else {
			var err error
			if cold, err = cc.ColdSet(); err != nil {
				return c, nil, fmt.Errorf("fleet: %v", err)
			}
			c.Cache = &cc
		}
	}
	return c, cold, nil
}

// nonFinite names the first NaN or ±Inf float field of a config struct
// (following struct pointers, so Cache is covered), or "" if every float
// is finite. A non-finite value would otherwise survive every `<= 0`
// default test above, run the whole fleet, and only fail when the report
// is marshalled.
func nonFinite(v reflect.Value) string {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if f.Kind() == reflect.Pointer && !f.IsNil() {
			f = f.Elem()
		}
		switch f.Kind() {
		case reflect.Float64:
			if x := f.Float(); math.IsNaN(x) || math.IsInf(x, 0) {
				return name
			}
		case reflect.Struct:
			if sub := nonFinite(f); sub != "" {
				return name + "." + sub
			}
		}
	}
	return ""
}

// Client is one drawn population member.
type Client struct {
	// Arrival is the session start on the fleet clock (seconds).
	Arrival float64
	// Watch is the viewing duration (the session's duration budget).
	Watch float64
	// Service indexes Config.Services.
	Service int
	// Trace is the cellular access profile, 1..netem.CellularCount.
	Trace int
	// Full selects the simulation tier: the full player state machine
	// when true, the coarse background tier when false.
	Full bool
}

// splitmix64 is the SplitMix64 finalizer — the standard cheap way to
// derive decorrelated per-stream seeds from one master seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cellSeed derives cell k's private RNG stream from the fleet seed.
// The double mix keeps adjacent cells (and adjacent seeds) statistically
// independent.
func cellSeed(seed int64, cell int) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)) ^ uint64(cell)))
}

// hotSize is the population share pinned to cell 0 under a hotspot
// layout: round(Hotspot · Sessions), never exceeding the population.
func hotSize(cfg Config) int {
	h := int(math.Round(cfg.Hotspot * float64(cfg.Sessions)))
	if h > cfg.Sessions {
		h = cfg.Sessions
	}
	return h
}

// cellCount returns the number of cells for a normalized config. With a
// hotspot, cell 0 carries the concentrated share and the remainder
// spreads over balanced cells of at most ClientsPerCell members.
func cellCount(cfg Config) int {
	if cfg.Hotspot > 0 {
		rest := cfg.Sessions - hotSize(cfg)
		return 1 + (rest+cfg.ClientsPerCell-1)/cfg.ClientsPerCell
	}
	return (cfg.Sessions + cfg.ClientsPerCell - 1) / cfg.ClientsPerCell
}

// cellSize returns cell k's member count. Without a hotspot, sessions
// are dealt round-robin across cells (cell k holds the indices ≡ k mod
// nCells); with one, cell 0 holds the hot share and the rest deal
// round-robin across the remaining cells. Hotspot == 0 reproduces the
// legacy layout exactly, cell for cell.
func cellSize(cfg Config, k int) int {
	n := cellCount(cfg)
	if k < 0 || k >= n {
		return 0
	}
	if cfg.Hotspot > 0 {
		hot := hotSize(cfg)
		if k == 0 {
			return hot
		}
		rest, m := cfg.Sessions-hot, n-1
		return (rest - (k - 1) + m - 1) / m
	}
	return (cfg.Sessions - k + n - 1) / n
}

// runSpec and cellSpec are, together, everything about a run that one
// cell's simulation may read. They are plain data; drawClients and
// simCell receive the two of them instead of the Config, and CellCache
// keys a cell by the pair (cellKey) — so a field the simulation can read
// is a field the key covers, and two sweep points that give a cell the
// same pair share its entry.
//
// runSpec is the half every cell of a run shares: the workload, edge and
// fidelity parameters, the service list and the cache tier. Seed,
// Sessions, ClientsPerCell and Hotspot are absent on purpose — they reach
// a cell only through its cellSpec.
type runSpec struct {
	ArrivalWindowSec, WatchSec  float64
	AbandonProb, AbandonMeanSec float64
	EdgeMbps, FidelityFull      float64
	Services                    []string

	// Cache is the normalized cache config (nil: no cache tier) with what
	// varies by cell erased — ColdCells, FailCell and FailAtSec — so a
	// cell is untouched by which other cells are cold or failing.
	Cache *cdn.CacheConfig
}

// cellSpec is the half that varies by cell: the cell's private RNG
// stream and size (which fold in Seed, Sessions, ClientsPerCell and
// Hotspot via the layout), its own bit of the cold set, and the edge
// failure time if this is the cell whose failure is armed (0: none).
type cellSpec struct {
	Seed      int64
	Size      int
	Cold      bool
	FailAtSec float64
}

// newRunSpec extracts a normalized config's run-wide half.
func newRunSpec(cfg Config) *runSpec {
	run := &runSpec{
		ArrivalWindowSec: cfg.ArrivalWindowSec, WatchSec: cfg.WatchSec,
		AbandonProb: cfg.AbandonProb, AbandonMeanSec: cfg.AbandonMeanSec,
		EdgeMbps: cfg.EdgeMbps, FidelityFull: cfg.FidelityFull,
		Services: cfg.Services,
	}
	if cfg.Cache != nil {
		cc := *cfg.Cache
		cc.ColdCells, cc.FailCell, cc.FailAtSec = "", 0, 0
		run.Cache = &cc
	}
	return run
}

// newCellSpec specialises a normalized config to cell k. cold is k's
// membership of the parsed Cache.ColdCells set.
func newCellSpec(cfg Config, k int, cold bool) cellSpec {
	cell := cellSpec{Seed: cellSeed(cfg.Seed, k), Size: cellSize(cfg, k)}
	if cc := cfg.Cache; cc != nil {
		cell.Cold = cold
		if cc.FailAtSec > 0 && cc.FailCell == k {
			cell.FailAtSec = cc.FailAtSec
		}
	}
	return cell
}

// drawBuf holds the arrays a cell's draw fills; the last draw's clients
// stay valid until the next draw into the same buffer.
type drawBuf struct {
	arrivals []float64
	clients  []Client
}

// drawClients draws a cell's members from its private RNG stream: rng,
// reseeded here with the cell's seed, so a generator can serve any number
// of cells in turn. The draw order — arrivals first (sorted within the
// cell), then per client watch, service, trace and fidelity — is part of
// the determinism contract: a stolen cell computes identical members on
// any worker. The members are buf's, until its next draw.
func drawClients(run *runSpec, cell cellSpec, rng *rand.Rand, buf *drawBuf) []Client {
	n := cell.Size
	// Rand.Seed, not Source.Seed: it also drops the bytes Rand.Read buffers.
	rng.Seed(cell.Seed)
	if cap(buf.arrivals) < n {
		buf.arrivals = make([]float64, n)
		buf.clients = make([]Client, n)
	}
	arrivals := buf.arrivals[:n]
	for i := range arrivals {
		arrivals[i] = rng.Float64() * run.ArrivalWindowSec
	}
	// Sorted within the cell: each cell sees a stationary arrival
	// process over the whole window.
	sort.Float64s(arrivals)
	clients := buf.clients[:n]
	for i := range clients {
		watch := run.WatchSec
		if rng.Float64() < run.AbandonProb {
			watch = min(run.WatchSec, max(5, rng.ExpFloat64()*run.AbandonMeanSec))
		}
		clients[i] = Client{
			Arrival: arrivals[i],
			Watch:   watch,
			Service: rng.Intn(len(run.Services)),
			Trace:   1 + rng.Intn(netem.CellularCount),
			Full:    rng.Float64() < run.FidelityFull,
		}
	}
	return clients
}

// Workload materializes the full population: the concatenation of every
// cell's draw, in cell order. It exists for inspection and tests — Run
// never builds it, each shard draws only its own cells. The config must
// be normalized.
func Workload(cfg Config) []Client {
	clients := make([]Client, 0, cfg.Sessions)
	run := newRunSpec(cfg)
	rng := rand.New(rand.NewSource(0)) // reseeded per cell by drawClients
	var buf drawBuf
	for k := 0; k < cellCount(cfg); k++ {
		clients = append(clients, drawClients(run, newCellSpec(cfg, k, false), rng, &buf)...)
	}
	return clients
}

// focusPlan draws the seeded focus sample: FocusSessions distinct
// (cell, member) coordinates from a dedicated RNG stream. Returns
// member indices per cell, sorted. Selection depends only on the
// normalized config.
func focusPlan(cfg Config) map[int][]int {
	if cfg.FocusSessions == 0 {
		return nil
	}
	nCells := cellCount(cfg)
	rng := rand.New(rand.NewSource(int64(splitmix64(uint64(cfg.Seed) ^ 0xf0c05a3b1e5d7c29))))
	want := cfg.FocusSessions
	if want > cfg.Sessions {
		want = cfg.Sessions
	}
	type coord struct{ cell, member int }
	chosen := make(map[coord]bool, want)
	// Rejection sampling with a generous attempt budget: for the
	// intended regime (focus ≪ sessions) collisions are rare; the cap
	// keeps pathological configs (focus ≈ sessions) from spinning.
	for attempts := 0; len(chosen) < want && attempts < 64*want+1024; attempts++ {
		cell := rng.Intn(nCells)
		sz := cellSize(cfg, cell)
		if sz == 0 {
			continue // a hot share that rounds to zero sessions leaves cell 0 empty
		}
		chosen[coord{cell, rng.Intn(sz)}] = true
	}
	plan := make(map[int][]int, len(chosen))
	for c := range chosen {
		plan[c.cell] = append(plan[c.cell], c.member)
	}
	for _, members := range plan {
		sort.Ints(members)
	}
	return plan
}

// RunOptions tunes execution without touching the output: the report
// bytes are identical for every combination.
type RunOptions struct {
	// Workers bounds the shard fan-out (0 or negative = scheduler
	// capacity); effective parallelism is additionally bounded by the
	// process-wide scheduler.
	Workers int
	// Steal forces a degenerate steal schedule (all shards seeded into
	// one deque, or stealing disabled) — determinism tests use it to
	// pin both extremes.
	Steal schedpkg.StealOptions
	// CellCache, when set, memoizes per-cell aggregates across runs by
	// cell key: a sweep that re-runs mostly-unchanged configs
	// (e.g. a hotspot sweep, where every balanced cell repeats) skips
	// the unchanged cells and merges their cached aggregates. Purely an
	// execution optimization: bytes are identical with or without it.
	CellCache *CellCache
}

// Run executes the fleet and reduces it to a population Report.
func Run(ctx context.Context, cfg Config, workers int) (*Report, error) {
	return RunWithOptions(ctx, cfg, RunOptions{Workers: workers})
}

// RunWithOptions is Run with an explicit execution schedule.
func RunWithOptions(ctx context.Context, cfg Config, opts RunOptions) (*Report, error) {
	cfg, cold, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	tab, err := newCellTables(cfg)
	if err != nil {
		return nil, err
	}

	nCells := cellCount(cfg)
	nShards := (nCells + cellsPerShard - 1) / cellsPerShard
	focus := focusPlan(cfg)
	run := newRunSpec(cfg)
	var digest expcache.Key
	if opts.CellCache != nil {
		if digest, err = runDigest(run); err != nil {
			return nil, err
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = sched.Capacity()
	}

	// Shards execute under the work-stealing layer; an idle worker
	// steals half of the fullest victim's remaining shards. Completed
	// shard aggregates park in `pending` and fold into the fleet
	// aggregate as an in-order prefix: whenever the next shard in index
	// order is available it is merged and released, so out-of-order
	// completions are buffered only across the reorder window — peak
	// memory stays O(workers) shard aggregates in the common case — and
	// the merge sequence is the same for every schedule.
	fleet := newFleetAgg(len(cfg.Services))
	var (
		mu       sync.Mutex
		pending  = make([]*fleetAgg, nShards)
		foldNext int
		focusOut []FocusSession
		// Scratches between shards. A shard takes one when it starts and
		// hands it back with its fold, so no more exist than shards ever
		// run at once — at most the worker count. A shard that fails keeps
		// its (possibly half-written) scratch to itself.
		free []*shardScratch
	)
	_, err = sched.RunStealing(ctx, nShards, workers, opts.Steal, func(sh int) error {
		shardAgg := newFleetAgg(len(cfg.Services))
		var shardFocus []FocusSession
		lo, hi := sh*cellsPerShard, (sh+1)*cellsPerShard
		if hi > nCells {
			hi = nCells
		}
		var scratch *shardScratch
		mu.Lock()
		if n := len(free); n > 0 {
			scratch, free = free[n-1], free[:n-1]
		}
		mu.Unlock()
		if scratch == nil {
			scratch = new(shardScratch)
		}
		// The metro cache is shard state: emptied here, warmed once,
		// and touched only by this shard's cells, which run strictly
		// sequentially below — so its evolution is a pure function of
		// the shard's cell order regardless of worker, schedule or which
		// shard held the scratch before.
		var metro *cdn.Metro
		if cfg.Cache != nil {
			metro = scratch.freshMetro(*cfg.Cache)
			tab.catalog.WarmMetro(metro)
		}
		for c := lo; c < hi; c++ {
			// A canceled context stops between cells, not just between
			// shards: a single shard of large hotspot cells can run for
			// a long time, and the steal layer only observes ctx at
			// shard boundaries.
			if err := ctx.Err(); err != nil {
				return err
			}
			cell := newCellSpec(cfg, c, cold[c])
			if cache := opts.CellCache; cache != nil {
				if len(focus[c]) > 0 || metro != nil {
					// Focus cells produce per-member FocusSessions the
					// cache does not capture — always run them cold.
					// Metro-coupled cells both read and evolve the
					// shard-shared metro cache, so their aggregates are
					// not a pure function of (config, cell index):
					// serving one from the memo would leave the metro
					// un-evolved for the shard's later cells.
					cache.skipped.Add(1)
				} else {
					fc, err := cache.get(cellKey{digest, cell}, func() (*finishedCell, error) {
						fc, _, err := runCell(cfg, c, run, cell, tab, nil, nil, scratch)
						return fc, err
					})
					if err != nil {
						return err
					}
					// A finished cell is immutable, so one cached cell can
					// fold into any number of later runs.
					shardAgg.merge(fc)
					continue
				}
			}
			fc, fs, err := runCell(cfg, c, run, cell, tab, metro, focus[c], scratch)
			if err != nil {
				return err
			}
			shardAgg.merge(fc)
			shardFocus = append(shardFocus, fs...)
		}
		mu.Lock()
		free = append(free, scratch)
		pending[sh] = shardAgg
		for foldNext < nShards && pending[foldNext] != nil {
			fleet.mergeFleet(pending[foldNext])
			pending[foldNext] = nil
			foldNext++
		}
		focusOut = append(focusOut, shardFocus...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Focus entries arrive in completion order; sort by coordinates so
	// the report bytes don't depend on the schedule.
	sort.Slice(focusOut, func(i, j int) bool {
		if focusOut[i].Cell != focusOut[j].Cell {
			return focusOut[i].Cell < focusOut[j].Cell
		}
		return focusOut[i].Member < focusOut[j].Member
	})
	return fleet.report(cfg, nCells, focusOut), nil
}

// newCellTables builds the run-wide tables every cell of a normalized
// config shares, immutable once built.
func newCellTables(cfg Config) (*cellTables, error) {
	tab := &cellTables{
		svcs:        make([]*services.Service, len(cfg.Services)),
		origins:     make([]*origin.Origin, len(cfg.Services)),
		bgTemplates: make([]player.BackgroundConfig, len(cfg.Services)),
		traces:      netem.CanonicalCellularSet(),
	}
	for i, name := range cfg.Services {
		var err error
		tab.svcs[i] = services.ByName(name)
		if tab.origins[i], err = expcache.Origin(tab.svcs[i]); err != nil {
			return nil, fmt.Errorf("fleet: origin for %s: %w", name, err)
		}
		tab.bgTemplates[i] = backgroundTemplate(tab.origins[i])
	}
	if cfg.Cache != nil {
		tab.catalog = cdnCatalog(tab.origins)
	}
	return tab, nil
}

// bgSafetyFactor calibrates the background tier's rung selection to the
// full player population. The coarse tier's EWMA sees only its own
// transfer rates (its fair share), while the full player's estimator
// reads network-wide delivery and therefore over-buys under contention;
// a factor above 1 compensates for that bias. 1.6 was fitted against
// full-fidelity runs across contention levels (TestFidelityDifferential
// pins the residual deltas).
const bgSafetyFactor = 1.6

// backgroundTemplate derives the coarse tier's view of a service — the
// declared ladder and segment grid — from its origin presentation.
func backgroundTemplate(org *origin.Origin) player.BackgroundConfig {
	pres := org.Pres
	declared := make([]float64, len(pres.Video))
	for i, r := range pres.Video {
		declared[i] = r.DeclaredBitrate
	}
	return player.BackgroundConfig{
		Declared:        declared,
		SegmentDuration: pres.Video[0].SegmentDuration,
		MediaDuration:   pres.Duration,
		SafetyFactor:    bgSafetyFactor,
	}
}

// cellTables is the run-wide immutable context cells share: the
// per-service tables (indexed like Config.Services), the cellular traces
// and, with a cache tier, the content catalog warm starts copy from.
type cellTables struct {
	svcs        []*services.Service
	origins     []*origin.Origin
	bgTemplates []player.BackgroundConfig
	traces      []*netem.Profile
	catalog     *cdn.Catalog
}

// cdnCatalog builds the cache tier's view of the content library — the
// per-service segment-size grids — from the origin presentations. The
// full player requests actual segment sizes, the background tier
// requests declared-rate sizes; the catalog records the actuals, which
// is what warm caches hold (cache keys only need the coordinates to
// agree, and they do).
func cdnCatalog(origins []*origin.Origin) *cdn.Catalog {
	titles := make([]cdn.Title, len(origins))
	for i, org := range origins {
		t := &titles[i]
		t.Video = make([][]float64, len(org.Pres.Video))
		for j, r := range org.Pres.Video {
			sizes := make([]float64, len(r.Segments))
			for k, s := range r.Segments {
				sizes[k] = float64(s.Size)
			}
			t.Video[j] = sizes
		}
		t.Audio = make([][]float64, len(org.Pres.Audio))
		for j, r := range org.Pres.Audio {
			sizes := make([]float64, len(r.Segments))
			for k, s := range r.Segments {
				sizes[k] = float64(s.Size)
			}
			t.Audio[j] = sizes
		}
	}
	return cdn.NewCatalog(titles)
}

// shardScratch is the memory one worker lends to the shards it runs, one
// after the other: everything a cell needs only while it is simulated and
// whose size settles after the first few cells. Each piece is put back
// into its initial state before use, so a cell cannot tell a recycled
// scratch from a new one. A scratch serves one run (one runSpec).
type shardScratch struct {
	// agg is the dense scratch every cell folds into; its slabs wait for
	// the first cell that is simulated.
	agg cellAgg
	// The cache tier: the current cell's edge nodes and the current
	// shard's metro cache. The scratch owns both; a cell or shard borrows
	// them through freshCell/freshMetro, which reset instead of rebuild.
	cell  *cdn.Cell
	metro *cdn.Metro
	// The current cell's network, cohort and group, borrowed the same way
	// (freshNet, freshCohort, freshGroup): each keeps what earlier cells
	// grew — free lists, slot and ring chunks, heap and wake arrays.
	net    *simnet.Network
	cohort *player.Cohort
	group  *player.Group
	// sessions are full sessions given back by the members that played
	// them, for the next member to arrive (fullSession).
	sessions []*player.Session
	// One-second samples of the run's two constant links, grown to the
	// longest horizon seen and never rewritten: a cell's edge and backhaul
	// profiles are prefixes of them.
	edgeSamples, backhaulSamples []float64
	// checked[k] records that service k's config has built a session here.
	checked []bool
	// rng and draw draw each cell's members; drawClients reseeds rng per
	// cell. fullAt maps the cell's full sessions to their members.
	rng    *rand.Rand
	draw   drawBuf
	fullAt []int
}

// cellRand returns the scratch's member-draw generator; its state is
// drawClients' to set.
func (s *shardScratch) cellRand() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(0))
	}
	return s.rng
}

// freshNet returns the scratch's network in the state simnet.New returns
// one over edge.
func (s *shardScratch) freshNet(edge *netem.Profile) *simnet.Network {
	if s.net == nil {
		s.net = simnet.New(simnet.DefaultConfig(), edge)
	} else {
		s.net.Reset(simnet.DefaultConfig(), edge)
	}
	return s.net
}

// freshCohort returns the scratch's cohort in the state player.NewCohort
// returns one over net.
func (s *shardScratch) freshCohort(net *simnet.Network) *player.Cohort {
	if s.cohort == nil {
		s.cohort = player.NewCohort(net)
	} else {
		s.cohort.Reset(net)
	}
	return s.cohort
}

// freshGroup returns the scratch's group in the state player.NewGroup
// returns one.
func (s *shardScratch) freshGroup() *player.Group {
	if s.group == nil {
		s.group = player.NewGroup()
	} else {
		s.group.Reset()
	}
	return s.group
}

// checkService builds service k's session once per scratch, so a config
// no session accepts fails the cell before it runs rather than inside it,
// as a lent member arrives. The session built joins the given-back ones.
func (s *shardScratch) checkService(tab *cellTables, k int) error {
	if len(s.checked) < len(tab.svcs) {
		s.checked = make([]bool, len(tab.svcs))
	}
	if s.checked[k] {
		return nil
	}
	var sess *player.Session
	if n := len(s.sessions); n > 0 {
		sess, s.sessions = s.sessions[n-1], s.sessions[:n-1]
	}
	sess, err := player.ReuseSession(sess, tab.svcs[k].Player, tab.origins[k], nil)
	if err != nil {
		return fmt.Errorf("%s session: %w", tab.svcs[k].Name, err)
	}
	s.giveBack(sess)
	s.checked[k] = true
	return nil
}

// giveBack takes a finished full session back for the next member.
func (s *shardScratch) giveBack(sess *player.Session) { s.sessions = append(s.sessions, sess) }

// fullSession builds member i's full session over net as the cell runs
// it — in a given-back session's memory when one is free — with its own
// access link and, with a cache tier, an edge-cache client.
func (s *shardScratch) fullSession(tab *cellTables, net *simnet.Network, cdnCell *cdn.Cell, m Client, i int) (*player.Session, error) {
	var sess *player.Session
	if k := len(s.sessions) - 1; k >= 0 {
		sess, s.sessions = s.sessions[k], s.sessions[:k]
	}
	var cl *cdn.Client
	if sess != nil {
		cl, _ = sess.Resolver().(*cdn.Client)
	}
	svc := tab.svcs[m.Service]
	sess, err := player.ReuseSession(sess, services.Resolve(svc.Player, m.Watch, nil), tab.origins[m.Service], net)
	if err != nil {
		return nil, fmt.Errorf("%s session: %w", svc.Name, err)
	}
	sess.SetStartAt(m.Arrival)
	sess.SetAccessLink(net.NewAccessLink(tab.traces[m.Trace-1]))
	if cdnCell != nil {
		sess.SetResolver(cdnCell.ReuseClient(cl, i), int32(m.Service))
	}
	return sess, nil
}

// freshMetro returns the scratch's metro cache in the state cdn.NewMetro
// returns one (nil when the tier is disabled).
func (s *shardScratch) freshMetro(cfg cdn.CacheConfig) *cdn.Metro {
	if s.metro == nil {
		s.metro = cdn.NewMetro(cfg)
	} else {
		s.metro.Reset()
	}
	return s.metro
}

// freshCell returns the scratch's cell in the state cdn.NewCell returns
// one for the same arguments.
func (s *shardScratch) freshCell(cfg cdn.CacheConfig, cellIdx int, metro *cdn.Metro, backhaul *simnet.AccessLink) *cdn.Cell {
	if s.cell == nil {
		s.cell = cdn.NewCell(cfg, cellIdx, metro, backhaul)
	} else {
		s.cell.Reset(cfg, cellIdx, metro, backhaul)
	}
	return s.cell
}

// constantOver is netem.Constant(name, bps, dur) over a lent slab: the
// same samples, but shared with every other profile cut from *slab, which
// must hold nothing but bps. Growing the slab leaves earlier profiles
// (immutable prefixes) intact.
func constantOver(slab *[]float64, name string, bps, dur float64) *netem.Profile {
	n := max(int(math.Ceil(dur)), 1)
	for len(*slab) < n {
		*slab = append(*slab, bps)
	}
	return &netem.Profile{Name: name, Samples: (*slab)[:n:n]}
}

// runCell runs cell k of a normalized config from its specs and labels
// what comes out: focus records carry k, and an error or a panic anywhere
// below comes back naming the cell, so a helper goroutine's crash
// surfaces through RunStealing like any other cell failure instead of
// killing the process. cfg and k are labels only — the simulation itself
// (simCell) sees nothing but the two specs.
func runCell(cfg Config, k int, run *runSpec, cell cellSpec, tab *cellTables, metro *cdn.Metro, focusMembers []int, scratch *shardScratch) (_ *finishedCell, fs []FocusSession, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panicked: %v\n%s", p, debug.Stack())
		}
		if err != nil {
			err = fmt.Errorf("fleet: cell %d (seed %d, %d sessions): %w", k, cfg.Seed, cfg.Sessions, err)
		}
	}()
	fc, fs, err := simCell(run, cell, tab, metro, focusMembers, scratch)
	for i := range fs {
		fs[i].Cell = k
	}
	return fc, fs, err
}

// simCell simulates one cell: every member session over one shared edge
// link, each behind its own cellular access link, folded into agg as it
// finishes and compacted into the cell's finishedCell at the end.
// Full-fidelity members run the player state machine — lean (no Result)
// unless selected as focus members — and background members run the
// coarse analytic tier over the same network. The cell is strictly
// single-threaded and a pure function of (run, cell, focusMembers) and,
// when metro-coupled, the metro cache's state; scratch only lends its
// memory.
func simCell(run *runSpec, cell cellSpec, tab *cellTables, metro *cdn.Metro, focusMembers []int, scratch *shardScratch) (*finishedCell, []FocusSession, error) {
	members := drawClients(run, cell, scratch.cellRand(), &scratch.draw)
	horizon, nFull := 0.0, 0
	for _, m := range members {
		if e := m.Arrival + m.Watch; e > horizon {
			horizon = e
		}
		if m.Full {
			nFull++
		}
	}
	nBackground := len(members) - nFull
	edge := constantOver(&scratch.edgeSamples, "edge", run.EdgeMbps*1e6, horizon+1)
	net := scratch.freshNet(edge)

	// The cell's edge-cache tier: its nodes, balancer and backhaul link
	// are cell-private; the metro cache (possibly nil) is shard state.
	var cdnCell *cdn.Cell
	var backhaul *simnet.AccessLink
	if run.Cache != nil {
		backhaul = net.NewAccessLink(constantOver(&scratch.backhaulSamples, "backhaul", run.Cache.BackhaulMbps*1e6, horizon+1))
		// The run's config names no failing cell, so this cell is its own
		// FailCell: armed iff its spec carries a failure time.
		cc := *run.Cache
		cc.FailAtSec = cell.FailAtSec
		cdnCell = scratch.freshCell(cc, cc.FailCell, metro, backhaul)
		if !cell.Cold {
			tab.catalog.Warm(cdnCell)
		}
	}

	agg := &scratch.agg
	agg.begin(len(run.Services))
	var focusOut []FocusSession
	// Full session p is member fullAt[p]. A focus member's session is
	// built now and keeps its Result; every other one is lent — built
	// lean from the scratch's given-back sessions as its member arrives,
	// and given back once the observer has read it.
	fullAt := scratch.fullAt[:0]
	g := scratch.freshGroup()
	g.SetObserver(func(s *player.Session, r *player.Result) {
		i := fullAt[s.Member()]
		m := members[i]
		agg.observe(m.Service, qoe.FromSummary(s.Summary()))
		if r != nil { // focus member: keep the full record
			focusOut = append(focusOut, buildFocus(run.Services[m.Service], m, i, r))
		}
	})
	g.SetLender(net, func(p int) *player.Session {
		i := fullAt[p]
		sess, err := scratch.fullSession(tab, net, cdnCell, members[i], i)
		if err != nil {
			panic(err) // unreachable: checkService built the service's session
		}
		return sess
	}, scratch.giveBack)
	// The whole background tier of the cell runs as one cohort: one
	// group-heap entry per member and per-member state only while it
	// plays, each member folded into the aggregates by the observer as
	// it finishes. A member's catalog id is its service index.
	cohort := scratch.freshCohort(net)
	cohort.Grow(nBackground)
	focus := focusMembers // ascending; the ones left are at or after member i
	for i, m := range members {
		if !m.Full {
			bcfg := tab.bgTemplates[m.Service]
			bcfg.SessionDuration = m.Watch
			j := cohort.Add(bcfg)
			cohort.SetStartAt(j, m.Arrival)
			cohort.SetAccessProfile(j, tab.traces[m.Trace-1])
			cohort.SetCatalog(j, int32(m.Service))
			agg.background++
			continue
		}
		fullAt = append(fullAt, i)
		agg.full++
		for len(focus) > 0 && focus[0] < i {
			focus = focus[1:]
		}
		if len(focus) == 0 || focus[0] != i {
			if err := scratch.checkService(tab, m.Service); err != nil {
				return nil, nil, err
			}
			g.AddLent(m.Arrival)
			continue
		}
		sess, err := scratch.fullSession(tab, net, cdnCell, m, i)
		if err != nil {
			return nil, nil, err
		}
		if err := g.Add(sess); err != nil {
			return nil, nil, err
		}
	}
	scratch.fullAt = fullAt
	if cohort.Len() > 0 {
		if cdnCell != nil {
			// A cohort member's locality key is its member index in the
			// cell: background member j follows j members and the full
			// sessions drawn before it.
			cohort.SetResolvers(func(j int, r cdn.Resolver) cdn.Resolver {
				i := j + sort.Search(len(fullAt), func(p int) bool { return fullAt[p]-p > j })
				cl, _ := r.(*cdn.Client)
				return cdnCell.ReuseClient(cl, i)
			})
		}
		cohort.SetObserver(func(j int, s *player.Summary) {
			agg.observe(int(cohort.Catalog(j)), qoe.FromSummary(s))
		})
		if err := g.AddCohort(cohort); err != nil {
			return nil, nil, err
		}
	}
	g.Run()
	if cohortDone != nil {
		cohortDone(cohort)
	}
	var cacheStats *cdn.Stats
	if cdnCell != nil {
		cacheStats = &cdnCell.Stats
		// Every connection has closed, so nothing flows on the backhaul:
		// the next cell's takes its memory.
		net.ReleaseLink(backhaul)
	}
	fc, err := agg.finish(run.Services, net.Delivered(), edge.Integral(0, net.Now()), cacheStats)
	return fc, focusOut, err
}

// buildFocus condenses a focus member's full Result into the report's
// focus record: per-session QoE plus the displayed-track and buffer
// timelines. The caller stamps the cell index.
func buildFocus(service string, c Client, member int, r *player.Result) FocusSession {
	rep := qoe.FromResult(r)
	fs := FocusSession{
		Member:          member,
		Service:         service,
		Trace:           c.Trace,
		ArrivalSec:      c.Arrival,
		WatchSec:        c.Watch,
		StartupDelaySec: rep.StartupDelay,
		StallCount:      rep.StallCount,
		StallSec:        rep.StallSec,
		PlayedSec:       rep.PlayedSec,
		AvgBitrateMbps:  rep.AvgBitrate / 1e6,
		Switches:        rep.Switches,
		TotalBytes:      rep.DataUsageBytes,
		WastedBytes:     rep.WastedBytes,
		Displayed:       append([]int(nil), r.Displayed...),
	}
	fs.Buffer = make([]FocusSample, len(r.Samples))
	for i, s := range r.Samples {
		fs.Buffer[i] = FocusSample{T: s.T, Playhead: s.Playhead, BufferSec: s.VideoSec}
	}
	return fs
}

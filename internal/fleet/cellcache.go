package fleet

// Cell-granular incremental recomputation. A sweep varies one config
// field and re-runs the fleet; most cells are unchanged — a hotspot
// sweep, for example, only changes the cell layout (cell 0's size and
// the balanced remainder), while every cell whose (seed stream, size,
// workload parameters) repeat produces byte-identical aggregates. The
// CellCache content-addresses finished cellAgg slabs by the fingerprint
// of the cell's spec, so warm sweep points skip the simulation for every
// repeated cell and merge the cached slabs directly.
//
// Safety argument: simCell is a pure function of its cellSpec —
// drawClients draws members from the spec's private splitmix64 stream,
// the simulation is single-threaded and receives the spec instead of
// the Config, and the resulting cellAgg is never mutated after return
// (fleetAgg.merge only reads its source). The key is the fingerprint of
// that same spec value plus the global EngineVersion, so it covers every
// field the simulation can read by construction, and any engine change
// invalidates everything. Focus cells bypass the cache entirely (their
// FocusSession records are not part of the cached value), as do cells
// behind an active metro tier (shard-coupled; see RunWithOptions).

import (
	"sync/atomic"

	"repro/internal/expcache"
)

// CellCache memoizes per-cell aggregates across fleet runs. Safe for
// concurrent use; share one across the runs of a sweep.
type CellCache struct {
	memo    expcache.Memo[expcache.Key, *cellAgg]
	skipped atomic.Int64
}

// NewCellCache returns an empty cache.
func NewCellCache() *CellCache {
	return &CellCache{}
}

// CellCacheStats is a point-in-time snapshot of cache effectiveness.
type CellCacheStats struct {
	// Builds counts cells simulated cold (cache misses).
	Builds int64
	// Hits counts cells served from a cached aggregate.
	Hits int64
	// Skipped counts cells that bypassed the cache: they carry focus
	// members or sit behind an active metro tier.
	Skipped int64
}

// Stats reports cumulative cache counters.
func (cc *CellCache) Stats() CellCacheStats {
	builds, hits, _ := cc.memo.Stats()
	return CellCacheStats{Builds: builds, Hits: hits, Skipped: cc.skipped.Load()}
}

// cellKey is a cell's cache key: its whole spec — nothing a sweep point
// changes elsewhere in the Config reaches it — under the engine version.
func cellKey(spec cellSpec) (expcache.Key, error) {
	return expcache.Fingerprint("fleetcell", expcache.EngineVersion, spec)
}

package fleet

// Cell-granular incremental recomputation. A sweep varies one config
// field and re-runs the fleet; most cells are unchanged — a hotspot
// sweep, for example, only changes the cell layout (cell 0's size and
// the balanced remainder), while every cell whose (seed stream, size,
// workload parameters) repeat produces byte-identical aggregates. The
// CellCache content-addresses finished cells by the fingerprint of
// everything the cell's simulation could read, so warm sweep points skip
// the simulation for every repeated cell and merge the cached cells
// directly. An entry is a finishedCell — the compact form, ≈ 1 KiB for a
// 24-session cell — so a memo of n cells costs what n cells hold, not n
// dense slabs.
//
// Safety argument: simCell is a pure function of its (runSpec, cellSpec)
// pair — drawClients draws members from the cell's private splitmix64
// stream, the simulation is single-threaded and receives the two specs
// instead of the Config, and a finishedCell is never mutated after
// finish returns it (fleetAgg.merge only reads its source). The key is
// those same two values — the run half as its fingerprint under the
// global EngineVersion, the cell half verbatim (cellKey) — so it covers
// every field the simulation can read by construction, and any engine
// change invalidates everything. Focus cells bypass the cache entirely
// (their FocusSession records are not part of the cached value), as do
// cells behind an active metro tier (shard-coupled; see RunWithOptions).

import (
	"sync/atomic"

	"repro/internal/expcache"
)

// CellCache memoizes finished cells across fleet runs. Safe for
// concurrent use; share one across the runs of a sweep.
type CellCache struct {
	memo    expcache.Memo[cellKey, *finishedCell]
	skipped atomic.Int64
	bytes   atomic.Int64
}

// NewCellCache returns an empty cache.
func NewCellCache() *CellCache {
	return &CellCache{}
}

// CellCacheStats is a point-in-time snapshot of cache effectiveness and
// cost.
type CellCacheStats struct {
	// Builds counts cells simulated cold (cache misses).
	Builds int64
	// Hits counts cells served from a cached aggregate.
	Hits int64
	// Skipped counts cells that bypassed the cache: they carry focus
	// members or sit behind an active metro tier.
	Skipped int64
	// Cells is how many entries the cache holds, and Bytes the memory of
	// the finished cells in them (each cell's struct and its two arrays,
	// summed as the cells are built — exact and deterministic, and
	// exclusive of the memo's own map, ≈ 0.1 KiB a cell).
	Cells int64
	Bytes int64
}

// Stats reports cumulative cache counters.
func (cc *CellCache) Stats() CellCacheStats {
	builds, hits, _ := cc.memo.Stats()
	return CellCacheStats{
		Builds: builds, Hits: hits, Skipped: cc.skipped.Load(),
		Cells: int64(cc.memo.Len()), Bytes: cc.bytes.Load(),
	}
}

// get returns the cached cell for key, building (and accounting) it on
// first use.
func (cc *CellCache) get(key cellKey, build func() (*finishedCell, error)) (*finishedCell, error) {
	return cc.memo.Get(key, func() (*finishedCell, error) {
		fc, err := build()
		if err == nil {
			cc.bytes.Add(fc.bytes())
		}
		return fc, err
	})
}

// cellKey is a cell's cache key, in two levels: the digest of the
// run-wide half of what its simulation can read, and the per-cell half
// itself. Both are derived by type — Fingerprint walks every field of
// runSpec (following Cache), and the compiler compares and hashes every
// field of cellSpec — and those two values are all simCell is given, so
// a field added to either struct for the simulation to read is in the
// key without anyone remembering to put it there. Nothing a sweep point
// changes elsewhere in the Config reaches it.
//
// Only the run half is hashed, once per run: of the ≈ 25 values behind a
// key, the four of the cellSpec are all that differ between the cells of
// a run, and a struct of four words needs no digest to be a map key.
type cellKey struct {
	Run  expcache.Key // runDigest of the cell's runSpec
	Cell cellSpec
}

// runDigest fingerprints the run-wide half under the engine version.
func runDigest(run *runSpec) (expcache.Key, error) {
	return expcache.Fingerprint("fleetrun", expcache.EngineVersion, run)
}

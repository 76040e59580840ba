// Package cdn is the deterministic edge-cache tier the paper's
// root-cause analysis keeps pointing at: where a segment is actually
// served from — an edge node, a metro cache, or the origin — and what
// that does to the client's achievable throughput. The topology is a
// two-level hierarchy in front of the origin:
//
//   - Per-cell edge nodes: segment-granular LRU caches with a byte
//     capacity and a TTL on the simulation's virtual clock. A load
//     balancer routes each session to one node when the session first
//     requests a segment, scoring nodes on locality (the member's home
//     node), live byte-load (bytes routed so far), and health; the
//     session sticks to its node until the node dies, at which point
//     the next request re-routes mid-stream.
//
//   - Per-shard metro caches: one larger cache behind the edge nodes
//     of a shard's cells (fleet aligns them to its fixed 16-cell
//     shards). An edge miss that hits metro pays a short metro RTT; a
//     metro miss goes to the origin and pays the origin RTT.
//
// Hits are served at edge rate — the request's throughput is shaped
// only by the client's access link and the shared edge link, exactly
// as before this tier existed. Misses additionally traverse the cell's
// shared backhaul link (simnet.AccessLink in upstream role, even-split
// under the same water-filling) and pay the metro or origin round
// trip as extra first-byte latency — so cache state feeds back into
// achievable throughput and hence into ABR decisions.
//
// Determinism: a cache is a map plus an intrusive LRU list — no map
// iteration ever decides anything — and every admit/evict/route
// decision is a pure function of the request stream and virtual time.
// Cells own their edge nodes, balancer state and backhaul link, so a
// cell remains a pure function of (config, cell index) given its metro
// cache's state; metro caches are owned by a shard and touched only by
// that shard's cells, which fold strictly in cell-index order on one
// goroutine — so fleet report bytes stay independent of worker count
// and steal schedule.
//
// Model simplifications (documented contract): admission happens at
// request time (the first request for an object warms the cache
// immediately — concurrent-miss collapse is free); manifests and other
// documents are pinned at the edge (only media segments route through
// the resolver); warm-start fills every cache with the catalog's
// popular prefix (ascending segment index — everyone starts at segment
// 0) unless the cell is in the configured cold set.
package cdn

import (
	"fmt"

	"repro/internal/simnet"
)

// Object kinds.
const (
	KindVideo uint8 = iota
	KindAudio
)

// Object identifies one cacheable media segment: a catalog entry
// (service index in the fleet mix), a rendition coordinate and a
// segment index. Both the full player and the coarse background tier
// can name objects this way, so they share cache state for the same
// title.
type Object struct {
	Catalog int32
	Kind    uint8
	Track   int32
	Index   int32
}

// The packed key's field widths: what one cache namespace can hold.
const (
	maxCatalog = 1 << 16
	maxTrack   = 1 << 16
	maxIndex   = 1 << 24
)

// key packs the object into the one machine word the cache index is
// keyed by: Catalog<<48 | Kind<<40 | Track<<24 | Index. A coordinate
// outside its field would alias another object's key, so it panics
// naming the field instead (a fleet cell reports it as that cell's
// error).
func (o Object) key() uint64 {
	if uint32(o.Catalog) >= maxCatalog || o.Kind > KindAudio || uint32(o.Track) >= maxTrack || uint32(o.Index) >= maxIndex {
		o.badKey()
	}
	return uint64(o.Catalog)<<48 | uint64(o.Kind)<<40 | uint64(o.Track)<<24 | uint64(o.Index)
}

// badKey is key's cold half: it names the first coordinate that does
// not fit. The uint32 conversions fold negatives into the upper range.
func (o Object) badKey() {
	field, limit := "Index", maxIndex
	switch {
	case uint32(o.Catalog) >= maxCatalog:
		field, limit = "Catalog", maxCatalog
	case o.Kind > KindAudio:
		field, limit = "Kind", int(KindAudio)+1
	case uint32(o.Track) >= maxTrack:
		field, limit = "Track", maxTrack
	}
	panic(fmt.Sprintf("cdn: object %+v: %s out of range [0, %d)", o, field, limit))
}

// Route is a resolver's verdict on one request: where the response is
// served from, expressed as the extra first-byte latency beyond the
// edge RTT and the shared upstream link the response must traverse
// (nil for an edge hit — served at edge rate).
type Route struct {
	ExtraLatency float64
	Upstream     *simnet.AccessLink
}

// Resolver classifies one media request at virtual time now. The
// player calls it once per segment (split parts share their segment's
// verdict) with the request's wire size in bytes.
type Resolver interface {
	Resolve(now float64, obj Object, size float64) Route
}

package cdn

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/simnet"
)

// recycleCatalog is a small library whose warm prefix fits the edge
// nodes of recycleCfg only in part, so warm cells start full and evict.
func recycleCatalog() *Catalog {
	titles := make([]Title, 3)
	for i := range titles {
		t := &titles[i]
		for track := 0; track < 3; track++ {
			sizes := make([]float64, 40)
			for seg := range sizes {
				sizes[seg] = float64(2000 * (1 + track) * (1 + i))
			}
			t.Video = append(t.Video, sizes)
		}
		t.Audio = [][]float64{make([]float64, 40)}
		for seg := range t.Audio[0] {
			t.Audio[0][seg] = 500
		}
	}
	return NewCatalog(titles)
}

func recycleCfg() CacheConfig {
	return CacheConfig{EdgeBytes: 400e3, MetroBytes: 1.5e6, TTLSec: 90, EdgeNodes: 3}.Normalized()
}

// cellCase is one cell of a shard: how it starts, whether node 0 fails,
// and the size of its population and request stream.
type cellCase struct {
	cold     bool
	failAt   float64
	members  int
	requests int
}

// request is one pre-drawn Resolve call.
type request struct {
	member int
	now    float64
	obj    Object
	size   float64
}

// drawRequests is a seeded stream over the catalog's coordinates, skewed
// to low segment indexes like a population that starts at segment 0.
func drawRequests(cat *Catalog, cs cellCase, seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, cs.requests)
	now := 0.0
	for i := range reqs {
		now += rng.Float64() * 0.5
		svc := rng.Intn(len(cat.Titles))
		obj := Object{Catalog: int32(svc), Kind: KindVideo, Track: int32(rng.Intn(3)), Index: int32(rng.Intn(1 + rng.Intn(40)))}
		size := cat.Titles[svc].Video[obj.Track][obj.Index]
		if rng.Intn(5) == 0 {
			obj.Kind, obj.Track = KindAudio, 0
			size = cat.Titles[svc].Audio[0][obj.Index]
		}
		reqs[i] = request{member: rng.Intn(cs.members), now: now, obj: obj, size: size}
	}
	return reqs
}

// lruKeys lists a cache's resident keys, most recent first.
func lruKeys(c *cache) []uint64 {
	var keys []uint64
	for e := c.head; e != nilEnt; e = c.ent[e].next {
		keys = append(keys, c.ent[e].key)
	}
	return keys
}

// snapshot renders everything about a cell a later request could observe:
// the counters, the balancer's state and each node's (and the metro's)
// bytes and LRU order.
func snapshot(c *Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stats %+v\nload %v dead %v armed %v\n", c.Stats, c.load, c.dead, c.failArmed)
	for i, n := range c.nodes {
		fmt.Fprintf(&b, "node %d: used %v lru %x\n", i, n.used, lruKeys(n))
	}
	if c.metro != nil {
		fmt.Fprintf(&b, "metro: used %v lru %x\n", c.metro.used, lruKeys(c.metro))
	}
	return b.String()
}

// playCell warms (unless cold) and drives one cell through its request
// stream, with a new client per member.
func playCell(cell *Cell, cat *Catalog, cs cellCase, reqs []request) []Route {
	if !cs.cold {
		cat.Warm(cell)
	}
	clients := make([]*Client, cs.members)
	for i := range clients {
		clients[i] = cell.NewClient(i)
	}
	routes := make([]Route, len(reqs))
	for i, r := range reqs {
		routes[i] = clients[r.member].Resolve(r.now, r.obj, r.size)
	}
	return routes
}

// TestResetEqualsNew: Reset is defined as "the state NewCell/NewMetro
// return". Two shards of cells — warm and cold, with and without a
// failing node, populations from 3 to 60 — are resolved once through a
// fresh cell per cell and a fresh metro per shard, and once through a
// single Cell/Metro pair reset in between. Every Route and every
// observable bit of state after every cell must agree.
func TestResetEqualsNew(t *testing.T) {
	cat, cfg := recycleCatalog(), recycleCfg()
	shards := [][]cellCase{
		{{members: 24, requests: 1500}, {cold: true, members: 60, requests: 3000}, {failAt: 40, members: 9, requests: 800}},
		{{cold: true, failAt: 10, members: 3, requests: 300}, {members: 40, requests: 2500}, {members: 5, requests: 20}},
	}
	recycled, recycledMetro := NewCell(cfg, 0, nil, nil), NewMetro(cfg)
	var seen Stats
	for sh, cells := range shards {
		freshMetro := NewMetro(cfg)
		recycledMetro.Reset()
		cat.WarmMetro(freshMetro)
		cat.WarmMetro(recycledMetro)
		for k, cs := range cells {
			name := fmt.Sprintf("shard %d cell %d", sh, k)
			cc := cfg
			cc.FailAtSec = cs.failAt
			// A distinct backhaul per cell: a recycled cell must route
			// misses over its own, not its predecessor's.
			backhaul := new(simnet.AccessLink)
			fresh := NewCell(cc, cc.FailCell, freshMetro, backhaul)
			recycled.Reset(cc, cc.FailCell, recycledMetro, backhaul)
			if got, want := snapshot(recycled), snapshot(fresh); got != want {
				t.Fatalf("%s: a reset cell is not a new cell:\n%s\nvs\n%s", name, got, want)
			}
			reqs := drawRequests(cat, cs, int64(100*sh+k))
			want := playCell(fresh, cat, cs, reqs)
			got := playCell(recycled, cat, cs, reqs)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: request %d (%+v) routed %+v recycled, %+v fresh", name, i, reqs[i], got[i], want[i])
				}
			}
			if got, want := snapshot(recycled), snapshot(fresh); got != want {
				t.Fatalf("%s: state diverged:\n%s\nvs\n%s", name, got, want)
			}
			if cs.failAt > 0 && fresh.Stats.Rerouted == 0 {
				t.Fatalf("%s: the failing node re-routed nobody; the case is vacuous", name)
			}
			seen.Add(fresh.Stats)
		}
	}
	if seen.EdgeHits == 0 || seen.MetroHits == 0 || seen.MetroMisses == 0 || seen.Rerouted == 0 {
		t.Fatalf("the streams miss a tier outcome: %+v", seen)
	}
}

// TestResetResizesNodes: Reset follows a config that changes the node
// count or capacity instead of keeping the old tier's shape.
func TestResetResizesNodes(t *testing.T) {
	cfg := recycleCfg()
	cell := NewCell(cfg, 0, nil, nil)
	cell.NewClient(0).Resolve(0, Object{Index: 1}, 100)
	cfg.EdgeNodes, cfg.EdgeBytes, cfg.TTLSec = 5, 1e6, 7
	cell.Reset(cfg, 0, nil, nil)
	if got, want := snapshot(cell), snapshot(NewCell(cfg, 0, nil, nil)); got != want {
		t.Fatalf("reset to a 5-node config:\n%s\nvs new:\n%s", got, want)
	}
	for i, n := range cell.nodes {
		if n.cap != cfg.EdgeBytes || n.ttl != cfg.TTLSec {
			t.Fatalf("node %d kept cap %v ttl %v", i, n.cap, n.ttl)
		}
	}
}

// TestRecycledShardKeepsItsMemory: once one shard has grown a Cell/Metro
// pair, resetting, warming and running further shards refills the memory
// it holds — indexes keep their buckets, slabs their capacity. The budget
// is a tenth of building the tier, not zero: every Go map draws a new
// hash seed when it is cleared, so the same keys land in other buckets
// and now and then one table grows once more (seen: under 1 % of a fresh
// tier per shard with the swiss map, 4 % — overflow buckets — with the
// map before it). Clients are excluded (rewound in place): one per member
// is the population's cost, not the tier's.
func TestRecycledShardKeepsItsMemory(t *testing.T) {
	cat, cfg := recycleCatalog(), recycleCfg()
	cs := cellCase{members: 24, requests: 2000}
	reqs := drawRequests(cat, cs, 7)
	var (
		cell    *Cell
		metro   *Metro
		clients = make([]*Client, cs.members)
	)
	for i := range clients {
		clients[i] = new(Client)
	}
	shard := func() {
		metro.Reset()
		cat.WarmMetro(metro)
		for k := 0; k < 4; k++ {
			cell.Reset(cfg, 0, metro, nil)
			if k > 0 { // cell 0 of the shard is cold
				cat.Warm(cell)
			}
			for i := range clients {
				*clients[i] = Client{cell: cell, member: i, node: -1}
			}
			for _, r := range reqs {
				clients[r.member].Resolve(r.now, r.obj, r.size)
			}
		}
	}
	fresh := allocatedBy(func() {
		cell, metro = NewCell(cfg, 0, nil, nil), NewMetro(cfg)
		shard()
	})
	if cell.Stats.EdgeMisses == 0 || cell.Stats.EdgeHits == 0 || cell.Stats.MetroHits == 0 {
		t.Fatalf("stream exercises one outcome only: %+v", cell.Stats)
	}
	const shards = 20
	recycled := allocatedBy(func() {
		for i := 0; i < shards; i++ {
			shard()
		}
	})
	t.Logf("a fresh shard allocates %d B, a recycled one %d B", fresh, recycled/shards)
	if recycled/shards > fresh/10 {
		t.Fatalf("a recycled shard allocates %d B, a fresh one %d B: the tier is being rebuilt, not reset", recycled/shards, fresh)
	}
}

// allocatedBy returns the bytes f allocates (single-goroutine tests only).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

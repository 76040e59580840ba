package cdn

import "repro/internal/simnet"

// Stats counts what one cell's cache tier did over a run. Bytes are
// wire bytes of media requests.
type Stats struct {
	EdgeHits    int64
	EdgeMisses  int64
	MetroHits   int64
	MetroMisses int64
	HitBytes    float64 // served from an edge node
	MissBytes   float64 // traversed the backhaul (metro or origin)
	OriginBytes float64 // subset of MissBytes that reached the origin
	Rerouted    int64   // sessions re-routed after their node died
}

// HitRatio is the edge hit ratio over media requests (1 when the cell
// saw no media requests, so idle cells don't drag distributions).
func (s Stats) HitRatio() float64 {
	n := s.EdgeHits + s.EdgeMisses
	if n == 0 {
		return 1
	}
	return float64(s.EdgeHits) / float64(n)
}

// Add accumulates another cell's counters.
func (s *Stats) Add(o Stats) {
	s.EdgeHits += o.EdgeHits
	s.EdgeMisses += o.EdgeMisses
	s.MetroHits += o.MetroHits
	s.MetroMisses += o.MetroMisses
	s.HitBytes += o.HitBytes
	s.MissBytes += o.MissBytes
	s.OriginBytes += o.OriginBytes
	s.Rerouted += o.Rerouted
}

// Cell is one cell's edge tier: EdgeNodes caches behind a load
// balancer, a shared backhaul link for misses, and an optional metro
// cache shared with the other cells of the fleet shard. All methods
// run on the cell's simulation goroutine; the metro cache is safe to
// share because a shard folds its cells strictly sequentially.
type Cell struct {
	cfg      CacheConfig
	nodes    []*cache
	load     []float64 // cumulative bytes routed per node
	dead     []bool
	metro    *cache // nil when the metro tier is disabled
	backhaul *simnet.AccessLink

	failArmed bool // failure injection pending for this cell
	Stats     Stats
}

// Metro is one shard's metro cache, shared by the shard's cells. Safe
// without locking because a shard folds its cells strictly
// sequentially on one goroutine.
type Metro struct {
	c *cache
}

// NewCell builds a cell's edge tier. cfg must be Normalized. backhaul
// is the shared upstream link misses traverse (registered with the
// cell's simnet by the caller). metro may be nil. The caller warms the
// edge nodes via Catalog.Warm unless the cell is cold.
func NewCell(cfg CacheConfig, cellIdx int, metro *Metro, backhaul *simnet.AccessLink) *Cell {
	c := new(Cell)
	c.Reset(cfg, cellIdx, metro, backhaul)
	return c
}

// Reset makes c the cell NewCell would return for the same arguments —
// empty live nodes, zero load and Stats, the failure re-armed — inside
// the memory c already holds: node indexes keep their buckets and entry
// slabs their capacity, so warming and running a recycled cell refills
// what its predecessors grew instead of allocating it again. Clients of
// the previous cell must not be used again.
func (c *Cell) Reset(cfg CacheConfig, cellIdx int, metro *Metro, backhaul *simnet.AccessLink) {
	if len(c.nodes) != cfg.EdgeNodes {
		c.nodes = make([]*cache, cfg.EdgeNodes)
		for i := range c.nodes {
			c.nodes[i] = newCache(cfg.EdgeBytes, cfg.TTLSec)
		}
		c.load = make([]float64, cfg.EdgeNodes)
		c.dead = make([]bool, cfg.EdgeNodes)
	}
	for i, n := range c.nodes {
		n.cap, n.ttl = cfg.EdgeBytes, cfg.TTLSec
		n.drop()
		c.load[i], c.dead[i] = 0, false
	}
	c.cfg = cfg
	c.metro = nil
	if metro != nil {
		c.metro = metro.c
	}
	c.backhaul = backhaul
	c.failArmed = cfg.FailAtSec > 0 && cellIdx == cfg.FailCell
	c.Stats = Stats{}
}

// NewMetro builds one shard's metro cache, or nil when the tier is
// disabled (MetroBytes == 0). MetroBytes < 0 means unlimited.
func NewMetro(cfg CacheConfig) *Metro {
	if cfg.MetroBytes == 0 {
		return nil
	}
	capBytes := cfg.MetroBytes
	if capBytes < 0 {
		capBytes = 0 // cache treats <= 0 as unlimited
	}
	return &Metro{c: newCache(capBytes, cfg.TTLSec)}
}

// Reset empties the metro cache — the state NewMetro returned it in —
// keeping its memory, for the next shard of whoever owns it. No-op on
// the nil Metro of a disabled tier.
func (m *Metro) Reset() {
	if m != nil {
		m.c.drop()
	}
}

// checkFail applies the configured edge-node failure once its virtual
// time arrives: node 0 dies, its cache content is lost, and sessions
// pinned to it re-route on their next request.
//
//vodlint:hotpath
func (c *Cell) checkFail(now float64) {
	if c.failArmed && now >= c.cfg.FailAtSec {
		c.failArmed = false
		c.dead[0] = true
		c.nodes[0].drop()
	}
}

// route scores the live edge nodes and returns the best for a member.
// Score = cumulative routed bytes minus a locality bias toward the
// member's home node (member % nodes); lowest score wins, ties go to
// the lowest index, so routing is deterministic. Returns -1 when every
// node is dead (callers fall back to the pure origin path).
//
//vodlint:hotpath
func (c *Cell) route(member int) int {
	const localityBias = 32 << 20 // bytes; keeps small loads sticky to home
	home := member % len(c.nodes)
	best, bestScore := -1, 0.0
	for n := range c.nodes {
		if c.dead[n] {
			continue
		}
		score := c.load[n]
		if n == home {
			score -= localityBias
		}
		if best == -1 || score < bestScore {
			best, bestScore = n, score
		}
	}
	return best
}

// Client binds one session (or cohort member / background flow) to the
// cell's tier and implements Resolver. The zero node assignment is
// lazy: the balancer routes on the first media request and again
// whenever the assigned node has died.
type Client struct {
	cell   *Cell
	member int
	node   int
	routed bool
}

// NewClient returns the resolver for one session. member disambiguates
// locality across the cell's population (fleet passes the member
// index).
func (c *Cell) NewClient(member int) *Client { return c.ReuseClient(nil, member) }

// ReuseClient is NewClient(member) in cl's memory (a new Client when cl
// is nil): whatever cl was bound to before, it starts unrouted. A pool of
// live viewers hands one Client from a finished viewer to the next.
func (c *Cell) ReuseClient(cl *Client, member int) *Client {
	if cl == nil {
		cl = new(Client)
	}
	*cl = Client{cell: c, member: member, node: -1}
	return cl
}

// Resolve classifies one media request. Edge hit: served at edge rate,
// Route{}. Edge miss: admitted at the node, then metro lookup/admit;
// the response traverses the shared backhaul and pays the metro or
// origin RTT as extra first-byte latency.
//
//vodlint:hotpath
func (cl *Client) Resolve(now float64, obj Object, size float64) Route {
	c := cl.cell
	c.checkFail(now)
	if !cl.routed || c.dead[cl.node] {
		n := c.route(cl.member)
		if n < 0 {
			// Every edge node is dead: pure origin path.
			c.Stats.EdgeMisses++
			c.Stats.MissBytes += size
			c.Stats.OriginBytes += size
			return Route{ExtraLatency: c.cfg.OriginRTTSec, Upstream: c.backhaul}
		}
		if cl.routed {
			c.Stats.Rerouted++
		}
		cl.node, cl.routed = n, true
	}
	c.load[cl.node] += size
	node := c.nodes[cl.node]
	if node.lookup(now, obj) {
		c.Stats.EdgeHits++
		c.Stats.HitBytes += size
		return Route{}
	}
	c.Stats.EdgeMisses++
	c.Stats.MissBytes += size
	node.admit(now, obj, size)
	lat := c.cfg.OriginRTTSec
	if c.metro != nil {
		if c.metro.lookup(now, obj) {
			c.Stats.MetroHits++
			lat = c.cfg.MetroRTTSec
		} else {
			c.Stats.MetroMisses++
			c.Stats.OriginBytes += size
			c.metro.admit(now, obj, size)
		}
	} else {
		c.Stats.OriginBytes += size
	}
	return Route{ExtraLatency: lat, Upstream: c.backhaul}
}

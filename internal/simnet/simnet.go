// Package simnet is a deterministic fluid-flow network simulator standing
// in for the paper's testbed (real devices behind a tc-shaped WiFi link).
//
// The model: link capacity over time comes from a netem.Profile; each HTTP
// request is a Transfer on a Conn (a TCP connection). Active transfers
// share the link max-min fairly, with each connection additionally capped
// by a TCP slow-start ramp whose window doubles every RTT — so rate caps
// are piecewise-constant and every completion time is computed exactly, in
// virtual time, with no goroutines and no wall clock. New connections pay
// a handshake round trip, every request pays one RTT of first-byte
// latency, and idle persistent connections re-enter slow start
// (slow-start-after-idle), which is what separates "persistent" from
// "non-persistent" services beyond the handshake (§3.2).
//
// # Engine
//
// Step is an incremental event engine with one network model and two
// regimes, chosen by flow count alone. Below vtimeEnter flowing transfers
// the anchored loop (cellengine.go) runs: O(F) per event, flow progress
// held as a (remaining, anchor time, rate) triple that is folded only
// when the flow's own rate changes. At or above it the virtual-time loop
// (vtime.go) takes the same flow records over at O(log F) per event, and
// hands them back once vtimeExit or fewer remain. Both regimes compute
// max-min fair rates under the same caps and agree up to float
// accumulation order; the differential tests hold each to an independent
// rebuild-and-sort-every-interval reference kept in the package's tests.
//
// Both loops read profiles on one clock (readSecond): a profile holds one
// sample per second, and at the first event of whole second k, while
// transfers flow, the loop reads sample k of the edge and of every active
// access link; a link that joins later in the second reads it as it
// joins. The next whole second is the only profile event either loop
// schedules, so an idle network schedules none. The hot path performs no
// heap allocations: scratch buffers are reused across intervals.
//
// # Free lists
//
// A Network keeps three free lists, one per object kind a caller holds:
// Recycle returns a completed Transfer, ReleaseConn a connection (closing
// it, and recycling the transfer the close abandoned), ReleaseLink an idle
// access link. Start, Dial/DialVia and NewAccessLink take from them before
// allocating, and reset what they take to exactly what a new object would
// be — a connection's dial sequence number included — so reuse is
// invisible to the simulation. Releasing is optional, the lists are plain
// per-network slices (never sync.Pool: reuse must not depend on GC
// timing), and releasing an object twice, or a link something still uses,
// panics. A caller that releases what its idle clients held keeps the
// network's objects proportional to the clients active at once rather than
// to every client it ever had. Reset returns a network to New's state with
// its free lists and scratch kept, so a caller that runs one simulation
// after another (a fleet worker's cells) reuses one network's memory.
package simnet

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/netem"
)

// Config holds the transport-model parameters.
type Config struct {
	// RTT is the client↔server round-trip time in seconds. Cellular RTTs
	// in the LTE era were ~50–100 ms; the default is 0.07.
	RTT float64
	// MSS is the TCP maximum segment size in bytes (default 1460).
	MSS float64
	// InitialWindowSegments is TCP's initial congestion window in
	// segments (default 10, per RFC 6928).
	InitialWindowSegments float64
	// HandshakeRTTs is the connection-establishment cost in round trips
	// before the HTTP request can be sent (default 1 for TCP; use 2 to
	// approximate TLS 1.2).
	HandshakeRTTs float64
	// SlowStartAfterIdle resets the congestion window after the
	// connection has been idle for IdleResetAfter (default true, like
	// Linux tcp_slow_start_after_idle).
	SlowStartAfterIdle bool
	// IdleResetAfter is the idle duration that triggers a window reset
	// (default 1 s).
	IdleResetAfter float64
	// ConnCapSequence, when non-empty, assigns a static per-connection
	// rate ceiling (bits/s) to connections in dial order (cycling).
	// It models heterogeneous per-connection bottlenecks — different
	// CDN paths or per-flow policers — under which the §3.2 observation
	// about sub-segment split points becomes visible: a work-conserving
	// shared link alone makes split points irrelevant.
	ConnCapSequence []float64
	// Engine is a shim for bench/probes.go and selects nothing: every
	// network runs the same two regimes. CellActive is its only reader.
	// To be deleted with ROADMAP item 1 (f).
	Engine Engine
}

// Engine and EngineCell are shims for bench/probes.go, which may not be
// edited here; ROADMAP item 1 (f) deletes them with Config.Engine,
// CellActive and VTimeActive.
type Engine int

// EngineCell is the one non-zero Engine: what bench/probes.go sets on the
// networks it expects CellActive of.
const EngineCell Engine = 1

const (
	// vtimeEnter is the flowing-transfer count at which Step hands the
	// flows to the virtual-time loop. High enough that every experiment
	// workload and every ordinary fleet cell stays on the anchored loop.
	vtimeEnter = 40
	// vtimeExit is the active-flow count at which the anchored loop takes
	// them back; the gap keeps a workload hovering near the threshold from
	// paying the hand-off per event.
	vtimeExit = 12
)

func (c Config) withDefaults() Config {
	if c.RTT <= 0 {
		c.RTT = 0.07
	}
	if c.MSS <= 0 {
		c.MSS = 1460
	}
	if c.InitialWindowSegments <= 0 {
		c.InitialWindowSegments = 10
	}
	if c.HandshakeRTTs <= 0 {
		c.HandshakeRTTs = 1
	}
	if c.IdleResetAfter <= 0 {
		c.IdleResetAfter = 1
	}
	return c
}

// DefaultConfig returns the default transport parameters.
func DefaultConfig() Config {
	return Config{SlowStartAfterIdle: true}.withDefaults()
}

// Transfer is one HTTP request/response exchange delivering Size bytes.
type Transfer struct {
	// Conn is the connection carrying the transfer.
	Conn *Conn
	// Size is the response body size in bytes.
	Size float64
	// Started is the virtual time the request was issued.
	Started float64
	// FlowAt is the time the first byte arrives (Started + latency).
	FlowAt float64
	// Completed is the time the last byte arrived (valid once Done).
	Completed float64
	// Done reports completion.
	Done bool
	// Meta carries caller context (e.g. which segment this is).
	Meta any

	// upstream is an optional second shared link the response traverses
	// in addition to the connection's access link — the cache-miss
	// backhaul in the CDN topology. Set per request by Conn.StartVia;
	// nil for responses served at the edge.
	upstream *AccessLink

	// The flow record both loops share: while the transfer flows,
	// `remaining` is the value at the last re-anchor aT and the flow drains
	// at `rate` from there; progress is folded in only when the rate
	// changes, on abandonment, at completion, or by an observer read. aT is
	// a wall-clock instant, except for a virtual-time uncapped flow (vUnc),
	// where it is V at the anchor and the rate is the shared slope.
	remaining float64
	rate      float64 // bytes/s since aT
	aT        float64
	pos       int // index in Network.flowing; -1 while not flowing there

	// Anchored loop (cellengine.go): finishT is the precomputed completion
	// instant under the current rate; cap memoizes the connection's
	// effective cap as of the last cap-changing event. waterfill reads it.
	finishT float64
	cap     float64

	// Virtual-time loop (vtime.go).
	vClass uint8 // vNone, vUnc (uncapped) or vCapd (capped)
	hFin   int   // position in vtimeState.uncFin/capFin; -1 outside
	hCap   int   // position in vtimeState.uncCap/capCap; -1 outside

	hPend  int // position in Network.pendHeap; -1 outside
	accPos int // position in Conn.access.members; -1 while not attached
	upPos  int // position in upstream.upMembers; -1 while not attached
}

// AccessLink models one client's own access link — its radio channel in
// the fleet's two-level "shared edge, private access" topology. The link
// carries a time-varying rate budget from a netem.Profile (the trace
// loops, exactly as the edge profile does); the budget is divided evenly
// among the link's flowing transfers and applied as a per-transfer cap
// on top of the edge link's max-min fair share, so a client's achieved
// rate is min(its access budget, its fair share of the edge). Even
// division is the fluid-model stand-in for TCP fair sharing on the
// access bottleneck: it can under-fill the link when one of the
// client's transfers is held below its share by slow start, which is
// conservative (never optimistic) and keeps per-link conservation
// exact.
//
// Create links with Network.NewAccessLink and attach them with DialVia.
type AccessLink struct {
	profile  *netem.Profile
	rateBps  float64 // profile sample as of the last read (bits/s)
	flows    int     // flowing transfers currently carried by the link
	capFloor float64 // vtime: no uncapped flow here has an uncCap key above this; +Inf if any flow here is capped

	// The flowing transfers themselves, split by role: members carries
	// transfers whose connection dialed via this link (access role),
	// upMembers those routed through it as a per-request upstream
	// (backhaul role). flows == len(members) + len(upMembers); the even
	// split divides the budget across both lists together.
	members   []*Transfer
	upMembers []*Transfer
	lpos      int // position in Network.links while flows > 0; -1 outside

	open   int  // connections dialed via the link and not yet closed
	pooled bool // on the network's link free list (ReleaseLink)
}

// Profile returns the bandwidth profile driving the link.
func (l *AccessLink) Profile() *netem.Profile { return l.profile }

// share is the link's even split of its current budget, bytes/s per
// flowing transfer.
func (l *AccessLink) share() float64 { return l.rateBps / 8 / float64(l.flows) }

// Conn models one TCP connection.
type Conn struct {
	net         *Network
	established bool
	closed      bool
	pooled      bool    // on the network's connection free list (ReleaseConn)
	capBps      float64 // slow-start cap in bytes/s; +Inf when steady
	staticCap   float64 // per-connection ceiling in bytes/s; +Inf when none
	access      *AccessLink
	nextGrow    float64 // next window doubling time (valid while ramping and active)
	lastActive  float64 // completion time of the last transfer
	cur         *Transfer
	idx         int // position in Network.conns; -1 once removed
	seq         int // dial sequence number; immutable, orders the flowing set
	hGrow       int // position in vtimeState.grow; -1 outside
}

// Busy reports whether a transfer is in flight on the connection.
func (c *Conn) Busy() bool { return c.cur != nil }

// Access returns the access link the connection was dialed via (nil for
// Dial).
func (c *Conn) Access() *AccessLink { return c.access }

// InSlowStart reports whether the connection's rate is still ramping.
func (c *Conn) InSlowStart() bool { return !math.IsInf(c.capBps, 1) }

// effCap is the connection's effective rate ceiling in bytes/s: the
// tightest of the slow-start window, the static per-connection cap, the
// connection's even share of its access link's current budget, and —
// for a request routed through an upstream (cache-miss backhaul) link —
// its even share of that link's budget too.
func (c *Conn) effCap() float64 {
	r := c.capBps
	if c.staticCap < r {
		r = c.staticCap
	}
	if l := c.access; l != nil && l.flows > 0 {
		if share := l.share(); share < r {
			r = share
		}
	}
	if tr := c.cur; tr != nil {
		if l := tr.upstream; l != nil && l.flows > 0 {
			if share := l.share(); share < r {
				r = share
			}
		}
	}
	return r
}

// Close releases the connection. A non-persistent client closes after
// every response and dials again for the next request. An in-flight
// transfer is abandoned: it never completes and stops consuming link
// capacity.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if l := c.access; l != nil {
		l.open--
	}
	if tr := c.cur; tr != nil {
		switch {
		case tr.vClass != vNone:
			c.net.v.abandon(c.net, tr)
		case tr.pos >= 0:
			c.net.cellMaterialize(tr)
			c.net.removeFlowing(tr)
		default:
			c.net.removePending(tr)
		}
	}
	c.net.removeConn(c)
}

// Start issues a request for size bytes on the connection. It panics if
// the connection is busy or closed (a programming error in the caller's
// scheduler — HTTP/1.1 carries one outstanding request per connection).
//
//vodlint:hotpath — per-request engine entry: one call per segment fetch
func (c *Conn) Start(size float64, meta any) *Transfer {
	return c.StartVia(size, 0, nil, meta)
}

// StartVia is Start for a request whose response is not served at the
// connection's near end: the response additionally traverses `upstream`
// (a shared backhaul link, nil for none) under the same even-split cap
// rule as the access link, and pays extraLatency seconds of additional
// first-byte delay (an origin or metro round trip). With extraLatency 0
// and a nil upstream it is exactly Start.
//
//vodlint:hotpath — per-request engine entry: one call per segment fetch
func (c *Conn) StartVia(size, extraLatency float64, upstream *AccessLink, meta any) *Transfer {
	if c.closed {
		panic("simnet: Start on closed connection")
	}
	if c.cur != nil {
		panic("simnet: Start on busy connection")
	}
	if size < 1 {
		size = 1
	}
	cfg := c.net.cfg
	now := c.net.now
	latency := cfg.RTT + extraLatency // request up + first byte down
	initialCap := cfg.InitialWindowSegments * cfg.MSS / cfg.RTT
	if !c.established {
		latency += cfg.HandshakeRTTs * cfg.RTT
		c.established = true
		c.capBps = initialCap
	} else if cfg.SlowStartAfterIdle && now-c.lastActive > cfg.IdleResetAfter {
		c.capBps = initialCap
	}
	tr := c.net.newTransfer()
	tr.Conn = c
	tr.Size = size
	tr.Started = now
	tr.FlowAt = now + latency
	tr.Meta = meta
	tr.upstream = upstream
	tr.remaining = size
	c.cur = tr
	c.nextGrow = tr.FlowAt + cfg.RTT
	// Latency is always positive, so a new transfer starts pending and
	// joins the flowing set once the clock reaches FlowAt.
	c.net.pendHeap.Push(tr, tr.FlowAt)
	return tr
}

// Network is the shared link plus its connections.
type Network struct {
	cfg       Config
	profile   *netem.Profile
	now       float64
	nextSec   float64 // the profile clock: the first event at or after this whole second reads the samples
	edgeRate  float64 // edge sample as of the last read, bytes/s; both loops rate flows under it
	conns     []*Conn
	dialed    int
	steadyCap float64 // cap beyond which a conn is considered out of slow start
	delivered float64 // total bytes delivered (for conservation checks)

	// Incrementally maintained transfer sets (see the package comment).
	flowing  []*Transfer     // anchored loop: first byte arrived, ordered by Conn.seq (dial order)
	pendHeap fheap[Transfer] // latency not yet elapsed, keyed by FlowAt
	links    []*AccessLink   // access links with at least one flowing transfer

	// Virtual-time loop (vtime.go); vmode reports that it, not the
	// anchored loop, owns the live flows right now. The two thresholds
	// are the vtimeEnter and vtimeExit constants on every network New
	// returns; in-package tests move them to pin a regime.
	v          *vtimeState
	vmode      bool
	vtimeEnter int
	vtimeExit  int

	// Anchored loop (cellengine.go). cellDirty schedules a full
	// water-filling (flow set or capacity changed); dirtyFlows queues
	// flows whose cached cap changed since the last rate assignment;
	// ratesAreCaps records that the last assignment gave every flow
	// exactly its cap (the regime where changed flows can be re-rated
	// independently).
	cellDirty    bool
	ratesAreCaps bool
	dirtyFlows   []*Transfer // scratch: flows to re-rate, cleared every event

	items     []capItem   // scratch for waterfill
	completed []*Transfer // scratch returned by Step; valid until the next Step

	// The free lists (see the package comment): released objects awaiting
	// reuse, the most recently released on top.
	freeTransfers []*Transfer
	freeConns     []*Conn
	freeLinks     []*AccessLink
}

type capItem struct {
	tr  *Transfer
	cap float64
}

// New creates a network over the given bandwidth profile.
func New(cfg Config, p *netem.Profile) *Network {
	n := &Network{pendHeap: fheap[Transfer]{set: func(tr *Transfer, i int) { tr.hPend = i }}}
	// The anchored loop's transfer scratch starts as one slab, room for
	// the few flows of a single session, so a short-lived network grows
	// none of the three one append at a time.
	slab := make([]*Transfer, 3*scratchFlows)
	n.flowing = slab[:0:scratchFlows]
	n.dirtyFlows = slab[scratchFlows : scratchFlows : 2*scratchFlows]
	n.completed = slab[2*scratchFlows : 2*scratchFlows : 3*scratchFlows]
	n.Reset(cfg, p)
	return n
}

// scratchFlows is how many flows each of New's scratch slices holds
// before it grows.
const scratchFlows = 8

// Reset puts n into the state New(cfg, p) returns, keeping only memory:
// the free lists, the set, heap and scratch arrays, and the virtual-time
// loop's state. The clock, the dial counter (a connection dialed next
// gets sequence number 0), the edge and every transfer set start over, so
// a network reset mid-flight simulates exactly what a new one would.
// Every connection, transfer and access link taken from n before the
// reset and not released is n's no longer: the caller must drop them
// (releasing or recycling one afterwards corrupts n).
func (n *Network) Reset(cfg Config, p *netem.Profile) {
	// The anchored loop owns a new network: its first event reads the
	// samples of second 0 (nextSec is zero) and runs a full water-filling.
	*n = Network{
		cfg: cfg.withDefaults(), profile: p, vtimeEnter: vtimeEnter, vtimeExit: vtimeExit, cellDirty: true,
		conns:         cleared(n.conns),
		flowing:       cleared(n.flowing),
		pendHeap:      n.pendHeap.emptied(),
		links:         cleared(n.links),
		v:             n.v,
		dirtyFlows:    cleared(n.dirtyFlows),
		items:         n.items[:0],
		completed:     cleared(n.completed),
		freeTransfers: n.freeTransfers,
		freeConns:     n.freeConns,
		freeLinks:     n.freeLinks,
	}
	if n.v != nil {
		n.v.reset()
	}
	// Once a connection's cap exceeds twice the link's peak rate it can
	// never be the bottleneck again; stop generating doubling events.
	n.steadyCap = 2 * p.Max() / 8
	if n.steadyCap <= 0 {
		n.steadyCap = math.Inf(1)
	}
}

// cleared empties a slice of pointers, dropping what it referenced and
// keeping its capacity. Only the live part is cleared, so a reset costs
// what is in flight, not what the largest run grew: past the length the
// sets hold nil (the engine nils what it removes) and the scratch at most
// an array's worth of stale pointers.
func cleared[T any](s []*T) []*T {
	clear(s)
	return s[:0]
}

// Now returns the current virtual time in seconds.
func (n *Network) Now() float64 { return n.now }

// Delivered returns the total bytes delivered so far (all transfers),
// the un-materialized progress of every live flow included: in O(1) from
// the aggregate anchors under the virtual-time loop, flow by flow under
// the anchored one.
func (n *Network) Delivered() float64 {
	if n.vmode {
		return n.v.deliveredAt(n)
	}
	d := n.delivered
	for _, tr := range n.flowing {
		if dt := n.now - tr.aT; dt > 0 {
			x := tr.rate * dt
			if x > tr.remaining {
				x = tr.remaining
			}
			d += x
		}
	}
	return d
}

// VTimeActive reports whether the virtual-time loop owns the live flows.
// A shim for bench/probes.go, like CellActive: ROADMAP item 1 (f) deletes
// both.
func (n *Network) VTimeActive() bool { return n.vmode }

// CellActive reports whether the anchored loop owns the live flows of a
// network configured with EngineCell — the one place Config.Engine is
// read.
func (n *Network) CellActive() bool { return n.cfg.Engine == EngineCell && !n.vmode }

// Dial creates a new, not-yet-established connection, reusing a released
// one if there is one.
func (n *Network) Dial() *Conn {
	c := take(&n.freeConns)
	if c == nil {
		c = new(Conn)
	}
	// The dial sequence number orders the flowing set and completion
	// batches, so a reused connection takes the next one, as a new one
	// would.
	*c = Conn{net: n, capBps: math.Inf(1), staticCap: math.Inf(1), idx: len(n.conns), seq: n.dialed, hGrow: -1}
	if seq := n.cfg.ConnCapSequence; len(seq) > 0 {
		c.staticCap = seq[n.dialed%len(seq)] / 8
	}
	n.dialed++
	n.conns = append(n.conns, c)
	return c
}

// NewAccessLink creates an access link over the given profile (bits/s,
// looping), reusing a released one if there is one. Connections attach
// with DialVia; a link shared by several connections divides its budget
// evenly among their flowing transfers.
func (n *Network) NewAccessLink(p *netem.Profile) *AccessLink {
	l := take(&n.freeLinks)
	if l == nil {
		l = new(AccessLink)
	}
	// A released link carries no flows, so its member lists are empty;
	// they keep their capacity.
	*l = AccessLink{profile: p, lpos: -1, members: l.members[:0], upMembers: l.upMembers[:0]}
	return l
}

// DialVia creates a connection carried by the given access link; a nil
// link makes DialVia identical to Dial.
func (n *Network) DialVia(l *AccessLink) *Conn {
	c := n.Dial()
	if l != nil {
		c.access = l
		l.open++
	}
	return c
}

// Recycle returns a transfer to the network's free list so a later
// Start can reuse the allocation. The caller asserts it holds no other
// references; recycling an in-flight transfer panics. Recycling is
// optional — transfers that are never recycled are simply left to the
// garbage collector.
func (n *Network) Recycle(tr *Transfer) {
	if tr == nil {
		return
	}
	if tr.Conn != nil && tr.Conn.cur == tr {
		panic("simnet: Recycle of in-flight transfer")
	}
	*tr = blankTransfer
	n.freeTransfers = append(n.freeTransfers, tr)
}

// ReleaseConn closes c if it is still open, recycles the transfer the
// close abandoned, and puts c on the network's connection free list for a
// later Dial or DialVia. The caller asserts it holds no other reference to
// either; c's access link stays the caller's (ReleaseLink). Releasing a
// connection twice panics.
func (n *Network) ReleaseConn(c *Conn) {
	if c.pooled {
		panic(fmt.Sprintf("simnet: ReleaseConn of conn %d: already released", c.seq))
	}
	c.Close()
	if tr := c.cur; tr != nil {
		c.cur = nil
		n.Recycle(tr)
	}
	c.pooled = true
	n.freeConns = append(n.freeConns, c)
}

// ReleaseLink puts an access link on the network's link free list for a
// later NewAccessLink. The link must carry no flows and no open
// connection may use it; releasing it anyway, or twice, panics.
func (n *Network) ReleaseLink(l *AccessLink) {
	switch {
	case l.pooled:
		panic(fmt.Sprintf("simnet: ReleaseLink of link %q: already released", l.profile.Name))
	case l.flows > 0:
		panic(fmt.Sprintf("simnet: ReleaseLink of link %q: %d flows still on it", l.profile.Name, l.flows))
	case l.open > 0:
		panic(fmt.Sprintf("simnet: ReleaseLink of link %q: %d connections still open on it", l.profile.Name, l.open))
	}
	l.pooled = true
	n.freeLinks = append(n.freeLinks, l)
}

// take pops the most recently released object off a free list (nil when
// the list is empty).
func take[T any](free *[]*T) *T {
	k := len(*free) - 1
	if k < 0 {
		return nil
	}
	x := (*free)[k]
	(*free)[k] = nil
	*free = (*free)[:k]
	return x
}

// blankTransfer is the reset value for new and recycled transfers:
// every set/heap position cleared.
var blankTransfer = Transfer{pos: -1, hFin: -1, hCap: -1, hPend: -1, accPos: -1, upPos: -1}

func (n *Network) newTransfer() *Transfer {
	if tr := take(&n.freeTransfers); tr != nil {
		return tr
	}
	tr := &Transfer{} //vodlint:allow hotalloc — free-list miss: bounded by peak concurrent transfers, then zero
	*tr = blankTransfer
	return tr
}

// removeConn unlinks a closed connection in O(1) by swap-delete. The
// connection list's order is free to change because everything
// order-sensitive (the flowing set, completion batches) is keyed on the
// immutable dial sequence number Conn.seq, which among live connections
// always agrees with the pre-swap relative order.
func (n *Network) removeConn(c *Conn) {
	i := c.idx
	if i < 0 || i >= len(n.conns) || n.conns[i] != c {
		return
	}
	last := len(n.conns) - 1
	if i != last {
		n.conns[i] = n.conns[last]
		n.conns[i].idx = i
	}
	n.conns[last] = nil
	n.conns = n.conns[:last]
	c.idx = -1
}

// linkAttach registers a transfer that just started flowing with its
// connection's access link, with its per-request upstream link (if any),
// and — on a link's first flow — with the network's active-link set. A
// link joining the set reads its sample for the current instant, so its
// flows are rated under this second's budget whichever loop runs and
// however long the link sat idle.
func (n *Network) linkAttach(tr *Transfer) {
	n.linkAttachOne(tr.Conn.access, tr, false)
	n.linkAttachOne(tr.upstream, tr, true)
}

//vodlint:hotpath — link-set bookkeeping: one call per role per flow arrival
func (n *Network) linkAttachOne(l *AccessLink, tr *Transfer, up bool) {
	if l == nil {
		return
	}
	if l.flows == 0 {
		l.lpos = len(n.links)
		n.links = append(n.links, l)
		l.rateBps = l.profile.At(n.now)
	}
	if up {
		tr.upPos = len(l.upMembers)
		l.upMembers = append(l.upMembers, tr)
	} else {
		tr.accPos = len(l.members)
		l.members = append(l.members, tr)
	}
	l.flows++
}

// linkDetach is linkAttach's inverse; a link with no flows left leaves
// the active-link set. Order within the member lists and links is
// irrelevant (both are refreshed, never accumulated), so swap-delete.
func (n *Network) linkDetach(tr *Transfer) {
	n.linkDetachOne(tr.Conn.access, tr, false)
	n.linkDetachOne(tr.upstream, tr, true)
}

//vodlint:hotpath — link-set bookkeeping: one call per role per flow departure
func (n *Network) linkDetachOne(l *AccessLink, tr *Transfer, up bool) {
	if l == nil {
		return
	}
	if up {
		i, last := tr.upPos, len(l.upMembers)-1
		if i < 0 {
			return
		}
		if i <= last && l.upMembers[i] == tr {
			if i != last {
				l.upMembers[i] = l.upMembers[last]
				l.upMembers[i].upPos = i
			}
			l.upMembers[last] = nil
			l.upMembers = l.upMembers[:last]
			l.flows--
		}
		tr.upPos = -1
	} else {
		i, last := tr.accPos, len(l.members)-1
		if i < 0 {
			return
		}
		if i <= last && l.members[i] == tr {
			if i != last {
				l.members[i] = l.members[last]
				l.members[i].accPos = i
			}
			l.members[last] = nil
			l.members = l.members[:last]
			l.flows--
		}
		tr.accPos = -1
	}
	if l.flows == 0 {
		if j := l.lpos; j >= 0 && j < len(n.links) && n.links[j] == l {
			lastL := len(n.links) - 1
			if j != lastL {
				n.links[j] = n.links[lastL]
				n.links[j].lpos = j
			}
			n.links[lastL] = nil
			n.links = n.links[:lastL]
		}
		l.lpos = -1
	}
}

// readSecond is the profile clock both loops share. At the first event of
// whole second k it reads sample k of the edge and of every active access
// link and compares each with the stored rate; the other events of the
// second read nothing, and n.nextSec, k+1, is the only profile event
// either loop schedules. A change is applied by regime: an edge change
// marks the anchored loop dirty and asks the virtual-time loop to
// rebalance; a changed link recomputes its members' caps in the anchored
// loop unless a full water-filling is already due, and re-keys them in
// the virtual-time loop only where its new share undercuts capFloor.
// Links are read in Network.links order. It reports whether the
// virtual-time loop must rebalance.
//
//vodlint:hotpath — profile clock: one pass over the active links per simulated second
func (n *Network) readSecond() (changed bool) {
	if n.now < n.nextSec {
		return false
	}
	n.nextSec = math.Floor(n.now) + 1
	// Exact comparisons on purpose: a stored, never-recomputed sample that
	// compares equal leaves every memoized rate valid.
	if c := n.profile.At(n.now) / 8; c != n.edgeRate { //vodlint:allow floateq — memo invalidation on a stored, never-recomputed sample value
		n.edgeRate = c
		n.cellDirty = true
		changed = true
	}
	for _, l := range n.links {
		r := l.profile.At(n.now)
		if r == l.rateBps { //vodlint:allow floateq — memo invalidation on a stored, never-recomputed sample value
			continue
		}
		l.rateBps = r
		switch {
		case n.vmode:
			if l.share() < l.capFloor {
				n.v.updateLinkCaps(n, l)
				changed = true
			}
		case !n.cellDirty:
			n.cellTouchMembers(l)
		}
	}
	return changed
}

// insertFlowing adds a transfer to the anchored loop's flowing set,
// keeping it ordered by connection dial order (waterfill's tie order).
func (n *Network) insertFlowing(tr *Transfer) {
	i := len(n.flowing)
	for i > 0 && n.flowing[i-1].Conn.seq > tr.Conn.seq {
		i--
	}
	n.flowing = append(n.flowing, nil)
	copy(n.flowing[i+1:], n.flowing[i:])
	n.flowing[i] = tr
	for j := i; j < len(n.flowing); j++ {
		n.flowing[j].pos = j
	}
	n.linkAttach(tr)
	// Queue the new flow for rating unconditionally (its recycled cap,
	// rate and finish time are blank) and refresh its link siblings'
	// caps — their even shares changed. In the all-capped regime that
	// is the entire effect of an arrival; outside it the re-rate pass
	// falls back to the full water-filling anyway.
	tr.cap = tr.Conn.effCap()
	n.dirtyFlows = append(n.dirtyFlows, tr)
	n.cellTouchLink(tr)
}

// removeFlowing drops a transfer from the anchored loop's flowing set
// (completion or close). No-op if the transfer is not flowing there.
func (n *Network) removeFlowing(tr *Transfer) {
	i := tr.pos
	if i < 0 || i >= len(n.flowing) || n.flowing[i] != tr {
		return
	}
	copy(n.flowing[i:], n.flowing[i+1:])
	last := len(n.flowing) - 1
	n.flowing[last] = nil
	n.flowing = n.flowing[:last]
	for j := i; j < last; j++ {
		n.flowing[j].pos = j
	}
	tr.pos = -1
	n.linkDetach(tr)
	if n.ratesAreCaps {
		// All-capped regime: a departure frees capacity without moving
		// anyone off their cap — only the departed flow's link siblings
		// change (their even shares grew). Refresh just those.
		n.cellTouchLink(tr)
	} else {
		// Water-filling regime: the freed share redistributes across
		// every remaining flow — full realloc at the next event.
		n.cellDirty = true
	}
}

// removePending drops a transfer whose first byte has not arrived yet
// (close before FlowAt) from the pending heap.
func (n *Network) removePending(tr *Transfer) {
	if i := tr.hPend; i >= 0 && i < n.pendHeap.Len() && n.pendHeap.val[i] == tr {
		n.pendHeap.Remove(i)
	}
}

// promote moves pending transfers whose FlowAt has arrived into the
// flowing set.
func (n *Network) promote() {
	for n.pendHeap.Len() > 0 && n.pendHeap.MinKey() <= n.now {
		n.insertFlowing(n.pendHeap.Pop())
	}
}

// Step advances virtual time until the earlier of `until` or the first
// transfer completion(s), and returns the completed transfers (empty when
// the deadline was reached first). Step with no active transfers simply
// advances the clock.
//
// The returned slice is reused by the next Step call: consume (or copy)
// it before stepping again, and do not append to it. The hotalloc
// analyzer holds Step itself (and everything it reaches) to zero
// allocations.
//
//vodlint:hotpath — per-event engine core: runs once per transfer completion across million-session fleets
func (n *Network) Step(until float64) []*Transfer {
	if until < n.now {
		panic(fmt.Sprintf("simnet: Step backwards from %v to %v", n.now, until))
	}
	// Exact comparison on purpose: callers re-Step to the same deadline
	// after draining a completion batch, and that exact-equality case
	// must cost nothing.
	if until == n.now { //vodlint:allow floateq — fast path keyed on the caller passing the identical deadline back
		return nil
	}
	for n.now < until {
		// Pick the regime by flow count, with hysteresis: the anchored
		// loop yields once vtimeEnter transfers flow, and takes the flows
		// back when vtimeExit or fewer are left.
		var completed []*Transfer
		switch {
		case n.vmode && n.v.active() <= n.vtimeExit:
			n.exitVTime()
			completed = n.cellStepOnce(until)
		case n.vmode:
			completed = n.vStepOnce(until)
		case len(n.flowing) >= n.vtimeEnter:
			n.enterVTime()
			completed = n.vStepOnce(until)
		default:
			completed = n.cellStepOnce(until)
		}
		if len(completed) > 0 {
			return completed
		}
	}
	return nil
}

// smallSortLen is the largest slice length for which the standard
// library's pdqsort is an insertion sort (and therefore stable); see its
// cutoff. Up to this length waterfill sorts caps with its own insertion
// sort — the exact same permutation, including for ties. Beyond it, it
// runs pdqsort (slices.SortFunc: no allocation), whose tie order is
// unspecified but deterministic.
const smallSortLen = 12

// waterfill distributes capacity (bytes/s) over the flowing transfers
// using max-min fairness with per-connection caps (progressive water
// filling), reading each flow's effective cap from the tr.cap memo the
// caller just refreshed. It sorts a reused scratch slice by ascending
// effective cap, ties in connection order, and assigns shares with the
// same sequential arithmetic as the reference implementation, bit for
// bit (TestWaterfillMatchesReference); it allocates nothing.
//
//vodlint:hotpath — water-filling: runs on every flow-set change
func (n *Network) waterfill(capacity float64) {
	items := n.items[:0]
	for _, tr := range n.flowing {
		items = append(items, capItem{tr, tr.cap})
	}
	if len(items) <= smallSortLen {
		for i := 1; i < len(items); i++ {
			for j := i; j > 0 && items[j].cap < items[j-1].cap; j-- {
				items[j], items[j-1] = items[j-1], items[j]
			}
		}
	} else {
		slices.SortFunc(items, func(a, b capItem) int { return cmp.Compare(a.cap, b.cap) })
	}
	remainingC := capacity
	remainingN := len(items)
	for _, it := range items {
		share := remainingC / float64(remainingN)
		r := it.cap
		if r > share {
			r = share
		}
		if r < 0 {
			r = 0
		}
		it.tr.rate = r
		remainingC -= r
		remainingN--
	}
	n.items = items
}

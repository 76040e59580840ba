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
// Step is an incremental event engine. The flowing-transfer set is
// maintained across intervals — a transfer enters it when its first byte
// arrives (FlowAt) and leaves on completion or connection close — instead
// of being rebuilt from the connection list every constant-rate interval.
// Max-min water-filling reruns only when the flowing set, a connection
// cap, or the link capacity actually changed; between such events the
// previously computed rates stay valid. Profile lookups go through a
// monotone netem.Cursor, so bandwidth queries are O(1) amortised over a
// forward simulation. The hot path performs no heap allocations:
// scratch buffers are reused across intervals and completed Transfer
// objects can be returned to a free list with Recycle.
//
// Everything the engine does is bit-identical to the straightforward
// rebuild-and-sort-every-interval formulation (kept as the reference
// implementation in the package's tests): the flowing set is ordered by
// connection dial order exactly as the rebuild produced it, water-filling
// applies the same arithmetic in the same order (ascending cap, stable
// for ties), and skipped recomputations would have produced the values
// already in place.
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
	// Engine selects the Step event engine (see the Engine constants).
	// The zero value, EngineAuto, picks per flow count.
	Engine Engine
}

// Engine selects Network.Step's event engine.
type Engine int

const (
	// EngineAuto switches on flow count: the O(F)-scan engine below
	// vtimeEnter flowing transfers, the O(log F) virtual-time engine at
	// or above it, with hysteresis (vtimeExit) so workloads hovering
	// near the threshold don't thrash between engines. Every workload
	// that stays below the threshold is bit-identical to EngineScan.
	EngineAuto Engine = iota
	// EngineScan forces the incremental scan engine: O(F) per event,
	// bit-identical to the PR 3 reference formulation.
	EngineScan
	// EngineVTime forces the virtual-service-time (fair-queuing) engine:
	// O(log F) per event, equivalent to EngineScan up to float
	// accumulation order (see the differential tests).
	EngineVTime
	// EngineCell selects the anchored-flow engine built for fleet cells
	// (cellengine.go): flow progress is a (rate, anchor-time) pair
	// materialized only when rates actually change, and profile sample
	// boundaries where the value does not change generate no events at
	// all — a constant edge profile is event-free, and idle-cell seconds
	// cost nothing. Equivalent to EngineScan up to float accumulation
	// order (delivery is accumulated in one multiply per constant-rate
	// stretch instead of one per boundary). Above vtimeEnter flowing
	// transfers it hands off to the virtual-time engine exactly as
	// EngineAuto does, and takes the flows back below vtimeExit.
	EngineCell
)

const (
	// vtimeEnter is the flowing-transfer count at which EngineAuto
	// switches to the virtual-time engine. High enough that every
	// experiment workload (≤ a dozen concurrent flows) stays on the
	// bit-exact scan engine.
	vtimeEnter = 40
	// vtimeExit is the active-flow count at which EngineAuto switches
	// back to the scan engine.
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

	remaining float64
	rate      float64 // last allocated rate, bytes/s (for inspection)
	pos       int     // index in Network.flowing; -1 while not flowing

	// Virtual-time engine state (see vtime.go). While attached to the
	// vtime engine (vClass != vNone), remaining and rate above are stale:
	// progress lives in the (vAnchor, vRem, vCap) triple and is
	// materialized lazily on completion, removal, or observer read.
	vClass  uint8   // vNone, vUnc (uncapped) or vCapd (capped)
	vCap    float64 // capped-class service rate, bytes/s
	vRem    float64 // remaining bytes at the last anchor
	vAnchor float64 // anchor: V at last re-anchor (uncapped) or wall time (capped)
	hFin    int     // position in vtimeState.uncFin/capFin; -1 outside
	hCap    int     // position in vtimeState.uncCap/capCap; -1 outside
	hPend   int     // position in Network.pendHeap; -1 outside
	accPos  int     // position in Conn.access.members; -1 while not attached
	upPos   int     // position in upstream.upMembers; -1 while not attached

	// Cell-engine state (cellengine.go). While the cell engine owns the
	// flow, `remaining` is the value at the last re-anchor (aT) and the
	// flow drains at `rate` from there; finishT is the precomputed
	// completion instant under the current rate.
	aT      float64
	finishT float64
	// cap memoizes the connection's effective cap as of the last time it
	// was recomputed: per allocate on the scan engine, per cap-changing
	// event on the cell engine. waterfill reads it.
	cap float64
}

// Remaining returns the bytes not yet delivered, as of the last engine
// event. Flows attached to the virtual-time engine materialize the
// value on demand from their service anchor.
func (t *Transfer) Remaining() float64 {
	switch t.vClass {
	case vUnc:
		if r := t.vRem - (t.Conn.net.v.vNow - t.vAnchor); r > 0 {
			return r
		}
		return 0
	case vCapd:
		if r := t.vRem - t.vCap*(t.Conn.net.now-t.vAnchor); r > 0 {
			return r
		}
		return 0
	}
	if t.pos >= 0 && t.Conn.net.cmode {
		if r := t.remaining - t.rate*(t.Conn.net.now-t.aT); r > 0 {
			return r
		}
		return 0
	}
	return t.remaining
}

// Rate returns the most recently allocated delivery rate in bytes/s.
// Under the virtual-time engine an uncapped flow's rate is the shared
// equal-share slope; a capped flow's is its cap.
func (t *Transfer) Rate() float64 {
	switch t.vClass {
	case vUnc:
		return t.Conn.net.v.slope
	case vCapd:
		return t.vCap
	}
	return t.rate
}

// Throughput returns the achieved goodput in bits/s over the whole
// request/response exchange, including latency — this is what a client's
// bandwidth estimator observes.
func (t *Transfer) Throughput() float64 {
	if !t.Done || t.Completed <= t.Started {
		return 0
	}
	return t.Size * 8 / (t.Completed - t.Started)
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
	cursor   netem.Cursor
	profile  *netem.Profile
	rateBps  float64 // profile sample at the last refresh (bits/s)
	nextChg  float64 // rateBps holds until here: NextChange (cell engine) or NextBoundary (vtime)
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
}

// Profile returns the bandwidth profile driving the link.
func (l *AccessLink) Profile() *netem.Profile { return l.profile }

// Conn models one TCP connection.
type Conn struct {
	net         *Network
	established bool
	closed      bool
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

// Established reports whether the TCP handshake has completed (i.e. the
// connection has carried at least one request).
func (c *Conn) Established() bool { return c.established }

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
		if share := l.rateBps / 8 / float64(l.flows); share < r {
			r = share
		}
	}
	if tr := c.cur; tr != nil {
		if l := tr.upstream; l != nil && l.flows > 0 {
			if share := l.rateBps / 8 / float64(l.flows); share < r {
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
	if tr := c.cur; tr != nil {
		if tr.vClass != vNone {
			c.net.v.abandon(c.net, tr)
		} else {
			if c.net.cmode {
				c.net.cellMaterialize(tr)
			}
			c.net.removeFlowing(tr)
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
	cursor    netem.Cursor
	now       float64
	conns     []*Conn
	dialed    int
	steadyCap float64 // cap beyond which a conn is considered out of slow start
	delivered float64 // total bytes delivered (for conservation checks)

	// Incrementally maintained transfer sets (see the package comment).
	flowing  []*Transfer     // first byte arrived, ordered by Conn.seq (dial order)
	pendHeap fheap[Transfer] // latency not yet elapsed, keyed by FlowAt
	links    []*AccessLink   // access links with at least one flowing transfer
	// Water-filling memo: rates stored on the flowing transfers stay
	// valid until the flowing set, a cap, or the capacity changes.
	allocDirty   bool
	lastCapacity float64

	// Virtual-time engine (vtime.go); vmode reports which engine owns
	// the live flows right now.
	v     *vtimeState
	vmode bool

	// Cell engine (cellengine.go); cmode reports whether the anchored
	// engine owns the live flows right now. cellDirty schedules a full
	// water-filling (flow set or capacity changed); dirtyFlows queues
	// flows whose cached cap changed since the last rate assignment;
	// ratesAreCaps records that the last assignment gave every flow
	// exactly its cap (the regime where changed flows can be re-rated
	// independently); edgeNextChg caches the edge profile's next value
	// change and linksNextChg the minimum nextChg across active access
	// links, shared with the vtime engine (conservative: a detached link
	// may leave it low, costing one wasted scan, never a missed refresh).
	cmode        bool
	cellDirty    bool
	ratesAreCaps bool
	edgeNextChg  float64
	linksNextChg float64
	capSum       float64     // running sum of the finite cached caps of flowing transfers
	numUncapped  int         // flowing transfers whose cached cap is +Inf
	dirtyFlows   []*Transfer // scratch: flows to re-rate, cleared every event

	items     []capItem   // scratch for waterfill
	completed []*Transfer // scratch returned by Step; valid until the next Step
	free      []*Transfer // Recycle'd Transfer objects awaiting reuse
}

type capItem struct {
	tr  *Transfer
	cap float64
}

// New creates a network over the given bandwidth profile.
func New(cfg Config, p *netem.Profile) *Network {
	cfg = cfg.withDefaults()
	n := &Network{cfg: cfg, profile: p, cursor: p.Cursor()}
	n.pendHeap.set = func(tr *Transfer, i int) { tr.hPend = i }
	// Once a connection's cap exceeds twice the link's peak rate it can
	// never be the bottleneck again; stop generating doubling events.
	n.steadyCap = 2 * p.Max() / 8
	if n.steadyCap <= 0 {
		n.steadyCap = math.Inf(1)
	}
	return n
}

// Now returns the current virtual time in seconds.
func (n *Network) Now() float64 { return n.now }

// Config returns the transport parameters in use.
func (n *Network) Config() Config { return n.cfg }

// Profile returns the bandwidth profile driving the link.
func (n *Network) Profile() *netem.Profile { return n.profile }

// Delivered returns the total bytes delivered so far (all transfers).
// Under the virtual-time engine the un-materialized service of every
// attached flow is folded in from the aggregate anchors in O(1).
func (n *Network) Delivered() float64 {
	if n.vmode {
		return n.v.deliveredAt(n)
	}
	if n.cmode {
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
	return n.delivered
}

// VTimeActive reports whether the virtual-time engine currently owns
// the live flows (exported for tests and benchmarks).
func (n *Network) VTimeActive() bool { return n.vmode }

// Dial creates a new, not-yet-established connection.
func (n *Network) Dial() *Conn {
	c := &Conn{net: n, capBps: math.Inf(1), staticCap: math.Inf(1), idx: len(n.conns), seq: n.dialed, hGrow: -1}
	if seq := n.cfg.ConnCapSequence; len(seq) > 0 {
		c.staticCap = seq[n.dialed%len(seq)] / 8
	}
	n.dialed++
	n.conns = append(n.conns, c)
	return c
}

// NewAccessLink creates an access link over the given profile (bits/s,
// looping). Connections attach with DialVia; a link shared by several
// connections divides its budget evenly among their flowing transfers.
func (n *Network) NewAccessLink(p *netem.Profile) *AccessLink {
	return &AccessLink{profile: p, cursor: p.Cursor(), rateBps: -1, lpos: -1}
}

// DialVia creates a connection carried by the given access link; a nil
// link makes DialVia identical to Dial.
func (n *Network) DialVia(l *AccessLink) *Conn {
	c := n.Dial()
	c.access = l
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
	n.free = append(n.free, tr)
}

// blankTransfer is the reset value for new and recycled transfers:
// every set/heap position cleared.
var blankTransfer = Transfer{pos: -1, hFin: -1, hCap: -1, hPend: -1, accPos: -1, upPos: -1}

func (n *Network) newTransfer() *Transfer {
	if k := len(n.free); k > 0 {
		tr := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
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
// and — on a link's first flow — with the network's active-link set.
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
// irrelevant (both are refreshed/min-folded, never accumulated), so
// swap-delete.
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

// insertFlowing adds a transfer to the flowing set, keeping it ordered
// by connection dial order (the iteration order the reference engine's
// per-interval rebuild produced).
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
	n.allocDirty = true
	if n.cmode {
		// Queue the new flow for rating unconditionally (its recycled cap,
		// rate and finish time are blank) and refresh its link siblings'
		// caps — their even shares changed. In the all-capped regime that
		// is the entire effect of an arrival; outside it the re-rate pass
		// falls back to the full water-filling anyway.
		if l := tr.Conn.access; l != nil && l.nextChg < n.linksNextChg {
			n.linksNextChg = l.nextChg
		}
		if l := tr.upstream; l != nil && l.nextChg < n.linksNextChg {
			n.linksNextChg = l.nextChg
		}
		tr.cap = tr.Conn.effCap()
		n.cellCapAdd(tr.cap)
		n.dirtyFlows = append(n.dirtyFlows, tr)
		n.cellTouchLink(tr)
	}
}

// removeFlowing drops a transfer from the flowing set (completion or
// close). No-op if the transfer is not flowing.
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
	n.allocDirty = true
	if n.cmode {
		n.cellCapSub(tr.cap)
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
// it before stepping again, and do not append to it. The stepalias
// analyzer enforces that contract at call sites; hotalloc holds Step
// itself (and everything it reaches) to the zero-allocation discipline
// PR 3 bought.
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
		n.autoShift()
		var completed []*Transfer
		switch {
		case n.vmode:
			completed = n.vStepOnce(until)
		case n.cmode:
			completed = n.cellStepOnce(until)
		default:
			completed = n.scanStepOnce(until)
		}
		if len(completed) > 0 {
			return completed
		}
	}
	return nil
}

// autoShift applies the engine-selection policy before each event. With
// EngineAuto the switch is hysteretic: enter virtual time at vtimeEnter
// flowing transfers, leave at vtimeExit active flows, so a workload
// hovering around the threshold doesn't pay the switch cost per event.
func (n *Network) autoShift() {
	switch n.cfg.Engine {
	case EngineScan:
		if n.vmode {
			n.exitVTime()
		}
	case EngineVTime:
		if !n.vmode {
			n.enterVTime()
		}
	case EngineCell:
		// Same hysteresis as EngineAuto, with the cell engine playing the
		// scan engine's role below the threshold.
		switch {
		case n.vmode:
			if n.v.active() <= vtimeExit {
				n.exitVTime()
				n.enterCell()
			}
		case !n.cmode:
			n.enterCell()
		case len(n.flowing) >= vtimeEnter:
			n.exitCell()
			n.enterVTime()
		}
	default:
		if n.vmode {
			if n.v.active() <= vtimeExit {
				n.exitVTime()
			}
		} else if len(n.flowing) >= vtimeEnter {
			n.enterVTime()
		}
	}
}

// scanStepOnce advances the scan engine by one event and returns any
// completions (nil when the event was not a completion). One iteration
// of the PR 3 loop, bit-identical to the reference formulation.
//
//vodlint:hotpath — scan-engine event: O(F) per event below the vtime threshold
func (n *Network) scanStepOnce(until float64) []*Transfer {
	const epsBytes = 1e-6
	n.promote()

	// Next state-change event: the deadline, a pending transfer's
	// first byte, a slow-start window doubling, a bandwidth boundary
	// in the edge profile, or one in an active access link's profile.
	// The same pass refreshes each access link's cached rate at the
	// current time — all reads happen at n.now and each active link is
	// visited exactly once, so the refresh is order-independent.
	next := until
	if k := n.pendHeap.MinKey(); k < next {
		next = k
	}
	for _, tr := range n.flowing {
		c := tr.Conn
		if c.InSlowStart() && c.nextGrow < next {
			next = c.nextGrow
		}
	}
	for _, l := range n.links {
		if b := l.cursor.NextBoundary(n.now); b < next {
			next = b
		}
		// Exact comparison on purpose: an unchanged piecewise-constant
		// sample means the memoized rates are still valid; any real
		// profile change flips the sample value exactly (same idiom as
		// lastCapacity below).
		if r := l.cursor.At(n.now); r != l.rateBps { //vodlint:allow floateq — memo invalidation on a stored, never-recomputed sample value
			l.rateBps = r
			n.allocDirty = true
		}
	}
	if b := n.cursor.NextBoundary(n.now); b < next {
		next = b
	}

	if len(n.flowing) == 0 {
		n.now = next
		n.grow()
		return nil
	}

	// Allocate rates max-min fairly under the connection caps —
	// but only if something changed since the last water-filling.
	capacity := n.cursor.At(n.now) / 8 // bytes/s
	// Exact comparison on purpose: an unchanged piecewise-constant
	// capacity yields bit-identical rates, so recomputation is pure
	// waste; any real profile change flips the sample value exactly.
	if n.allocDirty || capacity != n.lastCapacity { //vodlint:allow floateq — memo invalidation on a stored, never-recomputed sample value
		n.allocate(capacity)
		n.lastCapacity = capacity
		n.allocDirty = false
	}

	// Earliest completion in this constant-rate interval.
	tEvent := next
	for _, tr := range n.flowing {
		if tr.rate > 0 {
			if tDone := n.now + tr.remaining/tr.rate; tDone < tEvent {
				tEvent = tDone
			}
		}
	}
	if tEvent <= n.now {
		// Degenerate interval (floating point); nudge forward.
		tEvent = math.Nextafter(n.now, math.Inf(1))
	}

	dt := tEvent - n.now
	completed := n.completed[:0]
	for _, tr := range n.flowing {
		d := tr.rate * dt
		if d > tr.remaining {
			d = tr.remaining
		}
		tr.remaining -= d
		n.delivered += d
		if tr.remaining <= epsBytes {
			tr.remaining = 0
			tr.Done = true
			tr.Completed = tEvent
			tr.Conn.cur = nil
			tr.Conn.lastActive = tEvent
			completed = append(completed, tr)
		}
	}
	n.completed = completed
	for _, tr := range completed {
		n.removeFlowing(tr)
	}
	n.now = tEvent
	n.grow()
	return completed
}

// grow applies slow-start window doubling for connections whose doubling
// time has arrived. Only flowing transfers can grow: a pending
// transfer's first doubling (FlowAt+RTT) is always in the future, and an
// idle connection has no doubling events scheduled.
func (n *Network) grow() {
	for _, tr := range n.flowing {
		c := tr.Conn
		if !c.InSlowStart() {
			continue
		}
		for c.nextGrow <= n.now && c.InSlowStart() {
			c.capBps *= 2
			c.nextGrow += n.cfg.RTT
			if c.capBps >= n.steadyCap {
				c.capBps = math.Inf(1)
			}
			n.allocDirty = true
		}
	}
}

// smallSortLen is the largest slice length for which the standard
// library's pdqsort is an insertion sort (and therefore stable); see its
// cutoff. Up to this length the engine sorts caps with its own insertion
// sort — the exact same permutation, including for ties — and the
// uncapped fast path may skip sorting entirely (stability makes the
// sorted order the connection order). Beyond it the reference sorts
// with package sort's pdqsort, whose tie order is unspecified, so the
// engine runs the same pdqsort (slices.SortFunc: same algorithm, same
// permutation, no allocation) to stay bit-identical (no shipped
// experiment has that many concurrent flows).
const smallSortLen = 12

// allocate is the scan engine's rate assignment: recompute every flowing
// transfer's effective cap, then water-fill. (The cell engine maintains
// the tr.cap memo itself and calls waterfill directly.)
//
//vodlint:hotpath — water-filling: runs on every flow-set change
func (n *Network) allocate(capacity float64) {
	for _, tr := range n.flowing {
		tr.cap = tr.Conn.effCap()
	}
	n.waterfill(capacity)
}

// waterfill distributes capacity (bytes/s) over the flowing transfers
// using max-min fairness with per-connection caps (progressive water
// filling), reading each flow's effective cap from the tr.cap memo the
// caller just refreshed. Two fast paths cover the dominant cases; the
// general path sorts a reused scratch slice. No path allocates, and all
// produce bit-identical rates (asserted by
// TestAllocateFastPathsMatchGeneral): ascending effective cap, ties in
// connection order, with the same sequential share arithmetic as the
// reference implementation.
//
//vodlint:hotpath — water-filling: runs on every flow-set change
func (n *Network) waterfill(capacity float64) {
	flowing := n.flowing

	// Fast path: a single flow takes the whole link up to its cap
	// (capacity/1 is exact, so this equals the general path).
	if len(flowing) == 1 {
		tr := flowing[0]
		r := tr.cap
		if r > capacity {
			r = capacity
		}
		if r < 0 {
			r = 0
		}
		tr.rate = r
		return
	}

	// Fast path: steady-state connections (ramped out of slow start, no
	// static cap) are all uncapped — no sort needed, shares assign in
	// connection order exactly as the stable-sorted general path would.
	if len(flowing) <= smallSortLen {
		uncapped := true
		for _, tr := range flowing {
			if !math.IsInf(tr.cap, 1) {
				uncapped = false
				break
			}
		}
		if uncapped {
			remainingC := capacity
			remainingN := len(flowing)
			for _, tr := range flowing {
				r := remainingC / float64(remainingN)
				if r < 0 {
					r = 0
				}
				tr.rate = r
				remainingC -= r
				remainingN--
			}
			return
		}
	}

	// General path: ascending effective cap on a reused scratch slice.
	items := n.items[:0]
	for _, tr := range flowing {
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

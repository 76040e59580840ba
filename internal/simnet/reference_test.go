package simnet

// The reference implementation: the straightforward formulation of the
// model (rebuild the flowing set, re-read every profile and re-sort the
// caps every constant-rate interval, wake at every sample boundary, apply
// every window doubling eagerly). It shares no water-filling, cap or link
// bookkeeping with the code under test — only Config — and is the oracle
// of every differential test in the package: a script is replayed on it
// and on the production Network (simTarget below), and the two must
// complete the same transfers at tolerance-equal times (compareRuns) with
// each side's byte ledger balancing (checkConservation).
//
// Exact equality is not on offer: the reference declares a transfer done
// with up to epsBytes left and accumulates delivery once per boundary,
// the anchored loop folds one multiply per constant-rate stretch and the
// exact residual, the virtual-time loop serves uncapped flows at one
// shared slope.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/netem"
)

type refTransfer struct {
	size      float64
	started   float64
	flowAt    float64
	completed float64
	done      bool
	remaining float64
	rate      float64
	conn      *refConn
	upstream  *refLink
}

// refLink is an access or backhaul link: its budget at any instant is
// split evenly over the transfers flowing through it in either role.
type refLink struct {
	profile *netem.Profile
	flows   int // recounted every interval
}

type refConn struct {
	net         *refNetwork
	seq         int
	established bool
	closed      bool
	capBps      float64
	staticCap   float64
	access      *refLink
	nextGrow    float64
	lastActive  float64
	cur         *refTransfer
}

type refNetwork struct {
	cfg       Config
	profile   *netem.Profile
	now       float64
	conns     []*refConn
	dialed    int
	steadyCap float64
	delivered float64
}

func newRefNetwork(cfg Config, p *netem.Profile) *refNetwork {
	cfg = cfg.withDefaults()
	n := &refNetwork{cfg: cfg, profile: p}
	n.steadyCap = 2 * p.Max() / 8
	if n.steadyCap <= 0 {
		n.steadyCap = math.Inf(1)
	}
	return n
}

func (n *refNetwork) DialVia(l *refLink) *refConn {
	c := &refConn{net: n, seq: n.dialed, capBps: math.Inf(1), staticCap: math.Inf(1), access: l}
	if seq := n.cfg.ConnCapSequence; len(seq) > 0 {
		c.staticCap = seq[n.dialed%len(seq)] / 8
	}
	n.dialed++
	n.conns = append(n.conns, c)
	return c
}

func (n *refNetwork) removeConn(c *refConn) {
	for i, x := range n.conns {
		if x == c {
			n.conns = append(n.conns[:i], n.conns[i+1:]...)
			return
		}
	}
}

func (c *refConn) InSlowStart() bool { return !math.IsInf(c.capBps, 1) }

func (c *refConn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.net.removeConn(c)
}

func (c *refConn) StartVia(size, extraLatency float64, upstream *refLink) *refTransfer {
	if c.closed || c.cur != nil {
		panic("refConn: bad Start")
	}
	if size < 1 {
		size = 1
	}
	cfg := c.net.cfg
	now := c.net.now
	latency := cfg.RTT + extraLatency
	initialCap := cfg.InitialWindowSegments * cfg.MSS / cfg.RTT
	if !c.established {
		latency += cfg.HandshakeRTTs * cfg.RTT
		c.established = true
		c.capBps = initialCap
	} else if cfg.SlowStartAfterIdle && now-c.lastActive > cfg.IdleResetAfter {
		c.capBps = initialCap
	}
	tr := &refTransfer{
		conn:      c,
		size:      size,
		started:   now,
		flowAt:    now + latency,
		remaining: size,
		upstream:  upstream,
	}
	c.cur = tr
	c.nextGrow = tr.flowAt + cfg.RTT
	return tr
}

func (n *refNetwork) Step(until float64) []*refTransfer {
	if until < n.now {
		panic("refNetwork: Step backwards")
	}
	const epsBytes = 1e-6
	for n.now < until {
		var flowing []*refTransfer
		next := until
		for _, c := range n.conns {
			tr := c.cur
			if tr == nil {
				continue
			}
			if tr.flowAt > n.now {
				if tr.flowAt < next {
					next = tr.flowAt
				}
				continue
			}
			flowing = append(flowing, tr)
			if c.InSlowStart() && c.nextGrow < next {
				next = c.nextGrow
			}
		}
		if b := n.profile.NextBoundary(n.now); b < next {
			next = b
		}
		for _, tr := range flowing {
			for _, l := range [...]*refLink{tr.conn.access, tr.upstream} {
				if l != nil {
					l.flows = 0
					if b := l.profile.NextBoundary(n.now); b < next {
						next = b
					}
				}
			}
		}
		for _, tr := range flowing {
			for _, l := range [...]*refLink{tr.conn.access, tr.upstream} {
				if l != nil {
					l.flows++
				}
			}
		}

		if len(flowing) == 0 {
			n.now = next
			n.grow()
			continue
		}

		capacity := n.profile.At(n.now) / 8
		refAllocate(capacity, n.now, flowing)

		tEvent := next
		for _, tr := range flowing {
			if tr.rate > 0 {
				if tDone := n.now + tr.remaining/tr.rate; tDone < tEvent {
					tEvent = tDone
				}
			}
		}
		if tEvent <= n.now {
			tEvent = math.Nextafter(n.now, math.Inf(1))
		}

		dt := tEvent - n.now
		var completed []*refTransfer
		for _, tr := range flowing {
			d := tr.rate * dt
			if d > tr.remaining {
				d = tr.remaining
			}
			tr.remaining -= d
			n.delivered += d
			if tr.remaining <= epsBytes {
				tr.remaining = 0
				tr.done = true
				tr.completed = tEvent
				tr.conn.cur = nil
				tr.conn.lastActive = tEvent
				completed = append(completed, tr)
			}
		}
		n.now = tEvent
		n.grow()
		if len(completed) > 0 {
			return completed
		}
	}
	return nil
}

func (n *refNetwork) grow() {
	for _, c := range n.conns {
		if c.cur == nil || !c.InSlowStart() {
			continue
		}
		for c.nextGrow <= n.now && c.InSlowStart() {
			c.capBps *= 2
			c.nextGrow += n.cfg.RTT
			if c.capBps >= n.steadyCap {
				c.capBps = math.Inf(1)
			}
		}
	}
}

// refAllocate water-fills capacity over the flowing transfers under each
// one's cap at time now: the tightest of the slow-start window, the
// static cap, and an even share of its access and upstream links.
func refAllocate(capacity, now float64, flowing []*refTransfer) {
	type item struct {
		tr  *refTransfer
		cap float64
	}
	items := make([]item, len(flowing))
	for i, tr := range flowing {
		cap := tr.conn.capBps
		if tr.conn.staticCap < cap {
			cap = tr.conn.staticCap
		}
		for _, l := range [...]*refLink{tr.conn.access, tr.upstream} {
			if l != nil && l.flows > 0 {
				if share := l.profile.At(now) / 8 / float64(l.flows); share < cap {
					cap = share
				}
			}
		}
		items[i] = item{tr, cap}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].cap < items[j].cap })
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
}

// completionRec is one completed transfer as either side reports it.
type completionRec struct {
	connSeq   int
	size      float64
	completed float64
}

// simTarget is the slice of the simulator's API the replayed scripts use;
// links and connections are named by creation index (a connection's is
// its dial sequence number). prodTarget drives the Network under test and
// refTarget the reference, so every script has one runner.
type simTarget interface {
	newLink(p *netem.Profile) int
	dial(link int) int // link < 0 dials direct
	busy(conn int) bool
	// start issues a request; upstream >= 0 routes the response through
	// that link too, extraLatency seconds further away (Conn.StartVia).
	start(conn int, size, extraLatency float64, upstream int)
	close(conn int)
	step(until float64) []completionRec // one Step call
	// ledger returns the delivered total, the bytes drained from every
	// transfer ever started, and how many completed transfers still hold
	// bytes.
	ledger() (delivered, drained float64, dust int)
}

type prodTarget struct {
	t         *testing.T
	n         *Network
	links     []*AccessLink
	conns     []*Conn
	transfers []*Transfer
	afterStep func() // optional: extra invariants after every Step
}

// newProdTarget wraps a fresh production network; vtime pins it to the
// virtual-time loop, otherwise the flow count picks the regime as it does
// for every caller.
func newProdTarget(t *testing.T, cfg Config, p *netem.Profile, vtime bool) *prodTarget {
	n := New(cfg, p)
	if vtime {
		pinVTime(n)
	}
	return &prodTarget{t: t, n: n}
}

// pinVTime moves a fresh network's hand-off thresholds so the
// virtual-time loop owns every flow from the first event and never hands
// one back.
func pinVTime(n *Network) *Network {
	n.vtimeEnter, n.vtimeExit = 0, -1
	return n
}

func (p *prodTarget) newLink(prof *netem.Profile) int {
	p.links = append(p.links, p.n.NewAccessLink(prof))
	return len(p.links) - 1
}

func (p *prodTarget) link(i int) *AccessLink {
	if i < 0 {
		return nil
	}
	return p.links[i]
}

func (p *prodTarget) dial(link int) int {
	p.conns = append(p.conns, p.n.DialVia(p.link(link)))
	return len(p.conns) - 1
}

func (p *prodTarget) busy(conn int) bool { return p.conns[conn].Busy() }
func (p *prodTarget) close(conn int)     { p.conns[conn].Close() }
func (p *prodTarget) start(conn int, size, extraLatency float64, upstream int) {
	p.transfers = append(p.transfers, p.conns[conn].StartVia(size, extraLatency, p.link(upstream), nil))
}

func (p *prodTarget) step(until float64) []completionRec {
	done := p.n.Step(until)
	checkVTimeCapBounds(p.t, p.n)
	if p.afterStep != nil {
		p.afterStep()
	}
	recs := make([]completionRec, len(done))
	for i, tr := range done {
		if c := tr.Conn; c.idx >= 0 && p.n.conns[c.idx] != c {
			p.t.Fatalf("step(%v): conn %d's index is out of sync with the connection list", until, c.seq)
		}
		recs[i] = completionRec{tr.Conn.seq, tr.Size, tr.Completed}
	}
	return recs
}

func (p *prodTarget) ledger() (delivered, drained float64, dust int) {
	for _, tr := range p.transfers {
		drained += tr.Size - tr.Remaining()
		if tr.Done && tr.Remaining() != 0 {
			dust++
		}
	}
	return p.n.Delivered(), drained, dust
}

type refTarget struct {
	n         *refNetwork
	links     []*refLink
	conns     []*refConn
	transfers []*refTransfer
}

func newRefTarget(cfg Config, p *netem.Profile) *refTarget {
	return &refTarget{n: newRefNetwork(cfg, p)}
}

func (r *refTarget) newLink(prof *netem.Profile) int {
	r.links = append(r.links, &refLink{profile: prof})
	return len(r.links) - 1
}

func (r *refTarget) link(i int) *refLink {
	if i < 0 {
		return nil
	}
	return r.links[i]
}

func (r *refTarget) dial(link int) int {
	r.conns = append(r.conns, r.n.DialVia(r.link(link)))
	return len(r.conns) - 1
}

func (r *refTarget) busy(conn int) bool { return r.conns[conn].cur != nil }
func (r *refTarget) close(conn int)     { r.conns[conn].Close() }
func (r *refTarget) start(conn int, size, extraLatency float64, upstream int) {
	r.transfers = append(r.transfers, r.conns[conn].StartVia(size, extraLatency, r.link(upstream)))
}

func (r *refTarget) step(until float64) []completionRec {
	done := r.n.Step(until)
	recs := make([]completionRec, len(done))
	for i, tr := range done {
		recs[i] = completionRec{tr.conn.seq, tr.size, tr.completed}
	}
	return recs
}

func (r *refTarget) ledger() (delivered, drained float64, dust int) {
	for _, tr := range r.transfers {
		drained += tr.size - tr.remaining
		if tr.done && tr.remaining != 0 {
			dust++
		}
	}
	return r.n.delivered, drained, dust
}

// scriptRun is one target with the completions it has reported so far.
type scriptRun struct {
	simTarget
	label     string
	completed []completionRec
}

// stepTo steps the target to the deadline, collecting every completion
// batch on the way; both sides of a comparison then stand at exactly
// `until`, whatever the tolerance-level differences between their events.
func (r *scriptRun) stepTo(t *testing.T, until float64) {
	t.Helper()
	for {
		done := r.step(until)
		if len(done) == 0 {
			return
		}
		for _, c := range done {
			if k := len(r.completed); k > 0 && c.completed < r.completed[k-1].completed {
				t.Fatalf("%s: completion time went backwards: %v after %v", r.label, c.completed, r.completed[k-1].completed)
			}
			r.completed = append(r.completed, c)
		}
	}
}

// randomProfile builds a short looping profile with occasional zero and
// repeated samples so boundary handling and tied rates get exercised.
func randomProfile(rng *rand.Rand) *netem.Profile {
	n := 2 + rng.Intn(12)
	s := make([]float64, n)
	for i := range s {
		switch rng.Intn(6) {
		case 0:
			s[i] = 0
		case 1:
			if i > 0 {
				s[i] = s[i-1]
			} else {
				s[i] = 1e6
			}
		default:
			s[i] = math.Round(rng.Float64()*9e6) + 1e5
		}
	}
	return &netem.Profile{Name: "rand", Samples: s}
}

// drainableProfile is randomProfile with the dead samples lifted to
// 0.5 Mbit/s: conservation and drain-to-empty scripts need a link that
// can always deliver.
func drainableProfile(rng *rand.Rand) *netem.Profile {
	p := randomProfile(rng)
	for i, s := range p.Samples {
		if s == 0 {
			p.Samples[i] = 5e5
		}
	}
	return p
}

func randomConfig(rng *rand.Rand) Config {
	cfg := Config{
		RTT:                0.02 + rng.Float64()*0.15,
		SlowStartAfterIdle: rng.Intn(2) == 0,
	}
	if rng.Intn(3) == 0 {
		cfg.HandshakeRTTs = 2
	}
	if rng.Intn(4) == 0 {
		cfg.ConnCapSequence = []float64{2e6, 8e6, 1e6}
	}
	return cfg
}

// TestDifferentialVsReference drives the production network and the
// reference through the same randomized low-fan-in workloads — starts,
// idle gaps, closes and redials, zero-length and deadline steps, profiles
// with dead samples — and requires the same transfers to complete at
// tolerance-equal times, with each side's ledger balancing.
func TestDifferentialVsReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := randomProfile(rng)
			cfg := randomConfig(rng)
			prod := &scriptRun{simTarget: newProdTarget(t, cfg, p, false), label: "production"}
			ref := &scriptRun{simTarget: newRefTarget(cfg, p), label: "reference"}

			slots := make([]int, 1+rng.Intn(8))
			for i := range slots {
				slots[i] = prod.dial(-1)
				ref.dial(-1)
			}
			now := 0.0
			stepBoth := func(until float64) {
				prod.stepTo(t, until)
				ref.stepTo(t, until)
				now = until
			}
			for ev := 0; ev < 120; ev++ {
				switch op := rng.Intn(10); {
				case op < 5: // start a transfer on an idle connection
					c := slots[rng.Intn(len(slots))]
					if prod.busy(c) != ref.busy(c) {
						t.Fatalf("t=%v conn %d: busy %v on production, %v on the reference", now, c, prod.busy(c), ref.busy(c))
					}
					if prod.busy(c) {
						continue
					}
					size := math.Round(rng.Float64()*4e6) + 1
					prod.start(c, size, 0, -1)
					ref.start(c, size, 0, -1)
				case op < 6: // close (possibly mid-flight) and redial
					i := rng.Intn(len(slots))
					prod.close(slots[i])
					ref.close(slots[i])
					slots[i] = prod.dial(-1)
					ref.dial(-1)
				case op < 7: // zero-length step (fast-return path)
					stepBoth(now)
				default: // advance, sometimes far enough to trigger idle reset
					dt := rng.Float64() * 2
					if rng.Intn(4) == 0 {
						dt += 1.5
					}
					stepBoth(now + dt)
				}
			}
			// Drain everything still in flight.
			stepBoth(now + 500)
			checkConservation(t, ref)
			checkConservation(t, prod)
			compareRuns(t, ref, prod)
		})
	}
}

// TestWaterfillMatchesReference pins waterfill's one path bit for bit
// to the reference water-filling at every fan-in its insertion sort
// covers (1 to smallSortLen flows), exercising ties, static caps, zero
// and tiny capacity. Every draw also runs its first flow alone, so each
// cap kind and capacity meets the one-flow case too.
func TestWaterfillMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := netem.Constant("c", 8e6, 10)
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(smallSortLen)
		n := New(DefaultConfig(), p)
		flowing := make([]*Transfer, k)
		ref := make([]*refTransfer, k)
		for i := 0; i < k; i++ {
			c := n.Dial()
			rc := &refConn{capBps: math.Inf(1), staticCap: math.Inf(1)}
			switch rng.Intn(4) {
			case 0: // uncapped
			case 1: // slow-start cap, with deliberate ties across conns
				cap := float64(1+rng.Intn(3)) * 2e5
				c.capBps, rc.capBps = cap, cap
			case 2: // static cap
				cap := float64(1+rng.Intn(3)) * 1.5e5
				c.staticCap, rc.staticCap = cap, cap
			default: // both
				c.capBps, rc.capBps = 3e5, 3e5
				c.staticCap, rc.staticCap = 2.5e5, 2.5e5
			}
			tr := &Transfer{Conn: c, pos: i}
			tr.cap = c.effCap()
			flowing[i] = tr
			ref[i] = &refTransfer{conn: rc}
		}
		capacity := []float64{0, 1, 1e5, 1.237e6, 5e6}[rng.Intn(5)]
		for _, m := range []int{1, k} {
			n.flowing = flowing[:m]
			n.waterfill(capacity)
			refAllocate(capacity, 0, ref[:m])
			for i := 0; i < m; i++ {
				if flowing[i].Rate() != ref[i].rate {
					t.Fatalf("trial %d (%d flows, capacity=%g): rate[%d] = %v, reference %v",
						trial, m, capacity, i, flowing[i].Rate(), ref[i].rate)
				}
			}
		}
	}
}

// TestStepFastReturnAtNow asserts Step(now) is a no-op even with
// transfers in flight, and allocates nothing.
func TestStepFastReturnAtNow(t *testing.T) {
	n := New(DefaultConfig(), netem.Constant("c", 8e6, 100))
	c := n.Dial()
	c.Start(1e6, nil)
	n.Step(2)
	before := n.Delivered()
	allocs := testing.AllocsPerRun(100, func() {
		if got := n.Step(n.Now()); got != nil {
			t.Fatalf("Step(now) returned %d transfers", len(got))
		}
	})
	if allocs != 0 {
		t.Errorf("Step(now) allocated %.1f times per call", allocs)
	}
	if n.Delivered() != before {
		t.Errorf("Step(now) delivered bytes")
	}
}

// TestStepHotPathZeroAlloc pins the core promise of the event engine:
// once warmed up, advancing the simulation allocates nothing — not for
// scratch slices, not for rate allocation, and (with Recycle) not for
// Transfer objects.
func TestStepHotPathZeroAlloc(t *testing.T) {
	n := New(DefaultConfig(), netem.Constant("c", 10e6, 100)) // loops
	conns := []*Conn{n.Dial(), n.Dial(), n.Dial()}
	// Warm up: grow all scratch buffers and the free list.
	for i := 0; i < 4; i++ {
		for _, c := range conns {
			c.Start(2e5, nil)
		}
		for delivered := 0; delivered < len(conns); {
			done := n.Step(1e9)
			delivered += len(done)
			for _, tr := range done {
				n.Recycle(tr)
			}
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, c := range conns {
			c.Start(2e5, nil)
		}
		delivered := 0
		for delivered < len(conns) {
			done := n.Step(1e9)
			delivered += len(done)
			for _, tr := range done {
				n.Recycle(tr)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("hot path allocated %.1f times per start/step/recycle cycle", allocs)
	}
}

// TestConservationInvariants is the seeded property test over multi-wave
// workloads (back-to-back requests, idle gaps, mid-flight closes): bytes
// delivered equal bytes drained from transfers exactly, completion times
// never decrease across Step returns, and the link is never
// over-delivered relative to the profile integral.
func TestConservationInvariants(t *testing.T) {
	for seed := int64(100); seed < 130; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := drainableProfile(rng)
			n := New(DefaultConfig(), p)
			k := 1 + rng.Intn(6)
			conns := make([]*Conn, k)
			for i := range conns {
				conns[i] = n.Dial()
			}
			var all []*Transfer
			var completedSum float64
			lastCompleted := 0.0
			for ev := 0; ev < 60; ev++ {
				for i, c := range conns {
					if !c.Busy() && rng.Intn(3) > 0 {
						all = append(all, c.Start(math.Round(rng.Float64()*2e6)+1, nil))
					}
					if rng.Intn(20) == 0 {
						c.Close() // abandons any in-flight transfer
						conns[i] = n.Dial()
					}
				}
				until := n.Now() + rng.Float64()*3
				for {
					done := n.Step(until)
					if len(done) == 0 {
						break
					}
					for _, tr := range done {
						if tr.Completed < lastCompleted {
							t.Fatalf("completion time went backwards: %v after %v", tr.Completed, lastCompleted)
						}
						lastCompleted = tr.Completed
						if tr.Completed < tr.FlowAt {
							t.Fatalf("completed %v before first byte %v", tr.Completed, tr.FlowAt)
						}
						completedSum += tr.Size
					}
				}
			}
			// Drain what's left on still-open connections.
			for deadline := n.Now() + 1000; n.Now() < deadline; {
				busy := false
				for _, c := range conns {
					if c.Busy() {
						busy = true
					}
				}
				if !busy {
					break
				}
				for _, tr := range n.Step(deadline) {
					lastCompleted = tr.Completed
					completedSum += tr.Size
				}
			}
			// Delivered bytes == bytes drained out of every transfer ever
			// started (completed in full, abandoned in part). Exact: both
			// sides accumulate the same d values in the same order only on
			// the delivered side, so allow accumulation-order slop of ulps.
			var drained float64
			for _, tr := range all {
				drained += tr.Size - tr.Remaining()
			}
			if diff := math.Abs(n.Delivered() - drained); diff > 1e-3 {
				t.Fatalf("delivered %v != drained %v (diff %g)", n.Delivered(), drained, diff)
			}
			if completedSum > n.Delivered()+1e-3 {
				t.Fatalf("completed bytes %v exceed delivered %v", completedSum, n.Delivered())
			}
			if n.Delivered()*8 > p.Integral(0, n.Now())+1 {
				t.Fatalf("delivered %v bits exceeds link integral %v", n.Delivered()*8, p.Integral(0, n.Now()))
			}
		})
	}
}

// TestRecycle covers free-list reuse and the in-flight guard.
func TestRecycle(t *testing.T) {
	n := New(DefaultConfig(), netem.Constant("c", 8e6, 100))
	c := n.Dial()
	tr := c.Start(1e5, nil)
	assertPanics(t, func() { n.Recycle(tr) }, "Recycle in-flight")
	for len(n.Step(100)) == 0 {
	}
	n.Recycle(tr)
	n.Recycle(nil) // no-op
	tr2 := c.Start(1e5, nil)
	if tr2 != tr {
		t.Errorf("Start did not reuse the recycled transfer")
	}
	if tr2.Done || tr2.Remaining() != 1e5 || tr2.Meta != nil {
		t.Errorf("recycled transfer not reset: %+v", tr2)
	}
}

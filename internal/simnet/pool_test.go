package simnet

// Tests for the three free lists (Recycle, ReleaseConn, ReleaseLink): a
// reused object is indistinguishable from a new one, bit for bit, and
// misuse is a precise panic.
//
// The differential tests replay one script twice on lifeTarget, a
// simTarget that gives clients the cohort's life cycle — a link exists
// while some open connection uses it — once leaving every closed object to
// the garbage collector and once releasing it for reuse. The two runs must
// agree exactly: completion instants, Delivered, and every transfer's
// remaining bytes, compared as bit patterns.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/netem"
)

// flowRec is one transfer of a lifeTarget run as it last stood: tr is the
// live object, nil once the transfer completed or was abandoned (and, when
// releasing, handed back for reuse); rem is its remaining bytes from then.
type flowRec struct {
	tr        *Transfer
	size, rem float64
	done      bool
	completed float64
}

// lifeTarget drives a production Network with per-client object life
// cycles. Link indices are the script's: an index whose last open
// connection closed drops its link, and the next dial through the index
// creates a new one over the same profile. With release set, closing
// goes through ReleaseConn, a dropped link through ReleaseLink and a
// completed transfer through Recycle; without it the objects are simply
// dropped. Transfer.Meta holds the transfer's index in recs.
type lifeTarget struct {
	t       *testing.T
	n       *Network
	release bool

	links    []*AccessLink // nil while dropped
	linkProf []*netem.Profile
	linkOpen []int // open connections dialed via the index
	conns    []*Conn
	connLink []int
	recs     []flowRec
}

func newLifeTarget(t *testing.T, cfg Config, p *netem.Profile, vtime, release bool) *lifeTarget {
	n := New(cfg, p)
	if vtime {
		pinVTime(n)
	}
	return &lifeTarget{t: t, n: n, release: release}
}

func (p *lifeTarget) newLink(prof *netem.Profile) int {
	p.links = append(p.links, p.n.NewAccessLink(prof))
	p.linkProf = append(p.linkProf, prof)
	p.linkOpen = append(p.linkOpen, 0)
	return len(p.links) - 1
}

func (p *lifeTarget) link(i int) *AccessLink {
	if i < 0 {
		return nil
	}
	if p.links[i] == nil {
		p.links[i] = p.n.NewAccessLink(p.linkProf[i])
	}
	return p.links[i]
}

func (p *lifeTarget) dial(link int) int {
	p.conns = append(p.conns, p.n.DialVia(p.link(link)))
	p.connLink = append(p.connLink, link)
	if link >= 0 {
		p.linkOpen[link]++
	}
	return len(p.conns) - 1
}

func (p *lifeTarget) busy(conn int) bool { return p.conns[conn].Busy() }

func (p *lifeTarget) start(conn int, size, extraLatency float64, upstream int) {
	tr := p.conns[conn].StartVia(size, extraLatency, p.link(upstream), len(p.recs))
	p.recs = append(p.recs, flowRec{tr: tr, size: size})
}

func (p *lifeTarget) close(conn int) {
	c := p.conns[conn]
	if tr := c.cur; tr != nil && !c.closed {
		rec := &p.recs[tr.Meta.(int)]
		rec.rem, rec.tr = tr.Remaining(), nil
	}
	if p.release {
		p.n.ReleaseConn(c)
	} else {
		c.Close()
	}
	li := p.connLink[conn]
	if li < 0 {
		return
	}
	p.linkOpen[li]--
	if l := p.links[li]; p.linkOpen[li] == 0 && l.flows == 0 {
		if p.release {
			p.n.ReleaseLink(l)
		}
		p.links[li] = nil
	}
}

func (p *lifeTarget) step(until float64) []completionRec {
	done := p.n.Step(until)
	checkVTimeCapBounds(p.t, p.n)
	recs := make([]completionRec, len(done))
	for i, tr := range done {
		recs[i] = completionRec{tr.Conn.seq, tr.Size, tr.Completed}
		rec := &p.recs[tr.Meta.(int)]
		rec.rem, rec.done, rec.completed, rec.tr = tr.Remaining(), true, tr.Completed, nil
		if p.release {
			p.n.Recycle(tr)
		}
	}
	// What waits on a free list holds no engine state: no flow, no heap
	// slot, no place in the connection or active-link sets.
	for _, c := range p.n.freeConns {
		if c.cur != nil || c.idx >= 0 || c.hGrow >= 0 {
			p.t.Fatalf("t=%v: released conn %d holds engine state (cur %v, idx %d, hGrow %d)", p.n.now, c.seq, c.cur != nil, c.idx, c.hGrow)
		}
	}
	for _, l := range p.n.freeLinks {
		if l.flows != 0 || l.lpos >= 0 {
			p.t.Fatalf("t=%v: released link %q holds engine state (%d flows, lpos %d)", p.n.now, l.profile.Name, l.flows, l.lpos)
		}
	}
	return recs
}

// final returns every transfer's record with the live ones read now.
func (p *lifeTarget) final() []flowRec {
	out := slices.Clone(p.recs)
	for i := range out {
		if tr := out[i].tr; tr != nil {
			out[i].rem, out[i].tr = tr.Remaining(), nil
		}
	}
	return out
}

func (p *lifeTarget) ledger() (delivered, drained float64, dust int) {
	for _, r := range p.final() {
		drained += r.size - r.rem
		if r.done && r.rem != 0 {
			dust++
		}
	}
	return p.n.Delivered(), drained, dust
}

// compareExact requires two lifeTarget runs of one script to agree bit
// for bit: the same completion batches at the same instants, the same
// Delivered, the same remaining bytes on every transfer.
func compareExact(t *testing.T, fresh, pooled *scriptRun) {
	t.Helper()
	if !slices.Equal(fresh.completed, pooled.completed) {
		t.Fatalf("%s and %s completed different transfers or at different instants (%d vs %d completions)",
			fresh.label, pooled.label, len(fresh.completed), len(pooled.completed))
	}
	fl, pl := fresh.simTarget.(*lifeTarget), pooled.simTarget.(*lifeTarget)
	if a, b := fl.n.Delivered(), pl.n.Delivered(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("delivered: %s %v, %s %v", fresh.label, a, pooled.label, b)
	}
	fr, pr := fl.final(), pl.final()
	if len(fr) != len(pr) {
		t.Fatalf("%s started %d transfers, %s %d", fresh.label, len(fr), pooled.label, len(pr))
	}
	for i := range fr {
		if a, b := fr[i], pr[i]; math.Float64bits(a.rem) != math.Float64bits(b.rem) || a.done != b.done || math.Float64bits(a.completed) != math.Float64bits(b.completed) {
			t.Fatalf("transfer %d (size %v): %s %+v, %s %+v", i, a.size, fresh.label, a, pooled.label, b)
		}
	}
}

// checkLife runs one script fresh and with releases and holds the two to
// compareExact, and the released run to the reference.
func checkLife(t *testing.T, cfg Config, edge *netem.Profile, vtime bool, run func(simTarget, string) *scriptRun) {
	t.Helper()
	fresh := run(newLifeTarget(t, cfg, edge, vtime, false), "fresh")
	pooled := run(newLifeTarget(t, cfg, edge, vtime, true), "released")
	ref := run(newRefTarget(cfg, edge), "reference")
	checkConservation(t, fresh)
	checkConservation(t, pooled)
	compareExact(t, fresh, pooled)
	compareRuns(t, ref, pooled)
}

// TestReleaseReplaysWorkloads replays the seeded differential workloads
// (shared access links, a backhaul, mid-flight closes and redials) with
// and without releases, on a network left to pick its regime and on one
// pinned to the virtual-time loop.
func TestReleaseReplaysWorkloads(t *testing.T) {
	for _, vtime := range []bool{false, true} {
		for seed := int64(0); seed < 25; seed++ {
			t.Run(fmt.Sprintf("vtime=%v/seed%d", vtime, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				nconn, nlinks := 1+rng.Intn(96), rng.Intn(6)
				cfg, p, w := seededWorkload(rng, nconn, nlinks)
				if seed%2 == 1 {
					w.backhaul = netem.Constant("backhaul", 6e6, 7)
				}
				checkLife(t, cfg, p, vtime, func(tgt simTarget, label string) *scriptRun {
					return runWorkload(t, tgt, label, w)
				})
			})
		}
	}
}

// runChurn is the cohort's life cycle as a script: nclients clients, each
// behind a new access link over profs[i%len(profs)], arrive `every`
// seconds apart, fetch objects back to back, and leave `stay` seconds
// after arriving — most of them mid-transfer. Requests go out on
// quarter-second deadlines, so both runs of a comparison issue them at
// identical instants.
func runChurn(t *testing.T, tgt simTarget, label string, profs []*netem.Profile, nclients int, every, stay float64) *scriptRun {
	t.Helper()
	r := &scriptRun{simTarget: tgt, label: label}
	rng := rand.New(rand.NewSource(23))
	conn := make([]int, nclients) // -1 before arrival, -2 after departure
	for i := range conn {
		conn[i] = -1
	}
	for deadline, left := 0.0, nclients; left > 0; deadline += 0.25 {
		for i := range conn {
			arrive := every * float64(i)
			switch {
			case conn[i] == -1 && deadline >= arrive:
				conn[i] = r.dial(r.newLink(profs[i%len(profs)]))
			case conn[i] >= 0 && deadline >= arrive+stay:
				r.close(conn[i])
				conn[i] = -2
				left--
			}
			if c := conn[i]; c >= 0 && !r.busy(c) {
				r.start(c, math.Round(rng.Float64()*8e5)+5e4, 0, -1)
			}
		}
		r.stepTo(t, deadline+0.25)
	}
	return r
}

// TestReleaseReplaysChurn replays the cohort's shape: clients on private
// cellular access links under a 40 Mbit/s edge, every one of whose links,
// connections and abandoned transfers is released as it leaves. "crowd"
// peaks above vtimeEnter concurrent flows and hands over to the
// virtual-time loop and back.
func TestReleaseReplaysChurn(t *testing.T) {
	edge := netem.Constant("edge", 40e6, 1000)
	for _, tc := range []struct {
		name         string
		vtime        bool
		every, stay  float64
		nclients     int
		wantHandoffs bool
	}{
		{"anchored", false, 0.5, 8, 80, false},
		{"crowd", false, 0.1, 7, 300, true},
		{"vtime", true, 0.25, 8, 120, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sawVTime := false
			checkLife(t, DefaultConfig(), edge, tc.vtime, func(tgt simTarget, label string) *scriptRun {
				r := runChurn(t, tgt, label, stormProfiles(), tc.nclients, tc.every, tc.stay)
				if lt, ok := tgt.(*lifeTarget); ok {
					sawVTime = sawVTime || lt.n.v != nil
					if lt.release && len(lt.n.freeLinks) >= tc.nclients/2 {
						t.Fatalf("%d of %d links on the free list: clients did not reuse them", len(lt.n.freeLinks), tc.nclients)
					}
				}
				return r
			})
			if !tc.vtime && sawVTime != tc.wantHandoffs {
				t.Fatalf("entered the virtual-time loop: %v, want %v", sawVTime, tc.wantHandoffs)
			}
		})
	}
}

// TestResetReplaysStorm: a network reset mid-flight is a new network. One
// is driven into the virtual-time loop over another edge, with a
// transfer abandoned and a connection, a link and a transfer released,
// and reset while a hundred transfers still flow or wait for their first
// byte. It then replays a seeded link storm — entering the virtual-time
// loop and handing back — bit for bit as New's network does.
func TestResetReplaysStorm(t *testing.T) {
	cfg := DefaultConfig()
	sh := stormShape{nconn: 96, perLink: 2, edgeBps: 60e6}
	edge := netem.Constant("edge", sh.edgeBps, 1000)

	dirty := &prodTarget{t: t, n: New(cfg, netem.Constant("other", 25e6, 40))}
	profs := stormProfiles()
	for i := 0; i < 120; i++ {
		l := -1
		if i%3 > 0 {
			l = dirty.newLink(profs[i%len(profs)])
		}
		dirty.start(dirty.dial(l), 4e5+float64(i)*4e4, 0, -1)
	}
	dirty.step(1.5)
	dirty.n.ReleaseConn(dirty.conns[7])
	done := dirty.n.Step(dirty.n.Now() + 60)
	if len(done) == 0 {
		t.Fatal("before the reset: nothing completed")
	}
	dirty.n.Recycle(done[0])
	spare := dirty.n.NewAccessLink(profs[0])
	dirty.n.ReleaseLink(spare)
	inFlight := len(dirty.n.flowing) + dirty.n.pendHeap.Len()
	if dirty.n.v != nil {
		inFlight += dirty.n.v.active()
	}
	if !dirty.n.vmode || inFlight < 100 {
		t.Fatalf("before the reset: virtual-time loop %v with %d transfers in flight; want it with at least 100", dirty.n.vmode, inFlight)
	}
	n := dirty.n
	n.Reset(cfg, edge)
	t.Logf("reset with %d transfers in flight", inFlight)

	fresh := runLinkStorm(t, newProdTarget(t, cfg, edge, false), "new", profs, sh, 5, 2)
	reset := runLinkStorm(t, &prodTarget{t: t, n: n}, "reset", profs, sh, 5, 2)
	compareRuns(t, fresh, reset)
	if !slices.Equal(fresh.completed, reset.completed) {
		t.Fatalf("the reset network completed different transfers or at different instants than a new one (%d vs %d completions)", len(reset.completed), len(fresh.completed))
	}
	fd, _, _ := fresh.ledger()
	rd, _, _ := reset.ledger()
	if math.Float64bits(fd) != math.Float64bits(rd) {
		t.Fatalf("delivered: new %v, reset %v", fd, rd)
	}
	if n.v == nil {
		t.Fatal("the storm never reached the virtual-time loop")
	}
	t.Logf("replayed %d completions", len(reset.completed))
}

// TestReleaseSharedLinkDirtyFlow is the stale-queue hazard on a shared
// link, in both regimes. Connections A and B share one access link; A's
// completion changes B's even share, which queues B's transfer for
// re-rating. B is then released with that transfer in flight, and C dials
// the same link and starts a request before the network steps again: C
// takes B's connection and B's transfer from the free lists, and — in the
// anchored loop — the transfer is still queued from B's time, so the next
// event meets it twice. A long round trip keeps B in slow start, so under
// the virtual-time loop B's connection sits in the doubling heap when it
// is released. Every instant and byte count must equal a run where B is
// closed and C gets new objects.
func TestReleaseSharedLinkDirtyFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTT = 0.4
	edge := netem.Constant("edge", 100e6, 1000)
	// An even share of 25 kB/s, below the 36.5 kB/s first window: B's cap
	// is its share, so A's departure changes it.
	acc := netem.Constant("acc", 4e5, 1000)
	type outcome struct {
		completed [2]float64 // A's and C's completion instants
		delivered float64
		remB      float64
	}
	run := func(vtime, release bool) outcome {
		n := New(cfg, edge)
		if vtime {
			pinVTime(n)
		}
		l := n.NewAccessLink(acc)
		a, b := n.DialVia(l), n.DialVia(l)
		trA, trB := a.Start(2e4, nil), b.Start(4e6, nil)
		for len(n.Step(100)) == 0 {
		}
		if !trA.Done || trB.Done {
			t.Fatalf("vtime %v: A done %v, B done %v after the first batch", vtime, trA.Done, trB.Done)
		}
		var out outcome
		out.completed[0] = trA.Completed
		if !vtime && !slices.Contains(n.dirtyFlows, trB) {
			t.Fatal("A's departure did not queue B's transfer: the case no longer tests the stale queue")
		}
		if vtime && b.hGrow < 0 {
			t.Fatal("B's connection is not in the doubling heap: the case no longer tests its release")
		}
		out.remB = trB.Remaining()
		if release {
			n.Recycle(trA)
			n.ReleaseConn(b)
		} else {
			b.Close()
		}
		c := n.DialVia(l)
		trC := c.Start(1e6, nil)
		if release && (c != b || trC != trB) {
			t.Fatalf("vtime %v: C did not reuse B's connection and transfer", vtime)
		}
		if release && !vtime && !slices.Contains(n.dirtyFlows, trC) {
			t.Fatal("the reused transfer left the re-rate queue before the next event")
		}
		for !trC.Done {
			n.Step(n.Now() + 100)
		}
		out.completed[1] = trC.Completed
		out.delivered = n.Delivered()
		return out
	}
	for _, vtime := range []bool{false, true} {
		if fresh, pooled := run(vtime, false), run(vtime, true); fresh != pooled {
			t.Errorf("vtime %v: fresh objects %+v, released %+v", vtime, fresh, pooled)
		}
	}
}

// TestReleaseResets: what Dial and NewAccessLink hand out after a release
// is the object they would have built, member lists keeping their
// capacity, and the released object itself.
func TestReleaseResets(t *testing.T) {
	n := New(DefaultConfig(), netem.Constant("edge", 10e6, 100))
	p1, p2 := netem.Constant("one", 3e6, 100), netem.Constant("two", 5e6, 100)
	l := n.NewAccessLink(p1)
	c := n.DialVia(l)
	c.Start(1e6, nil)
	n.Step(0.5) // flowing, in slow start, link sampled
	n.ReleaseConn(c)
	n.ReleaseLink(l)

	n2 := n.NewAccessLink(p2)
	if n2 != l || cap(n2.members) == 0 {
		t.Fatalf("NewAccessLink did not reuse the released link with its member capacity (same %v, cap %d)", n2 == l, cap(n2.members))
	}
	got, want := *n2, AccessLink{profile: p2, lpos: -1}
	got.members, got.upMembers = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reused link %+v, want %+v", got, want)
	}
	d := n.Dial()
	if d != c {
		t.Fatal("Dial did not reuse the released connection")
	}
	if want := (Conn{net: n, capBps: math.Inf(1), staticCap: math.Inf(1), idx: 0, seq: 1, hGrow: -1}); *d != want {
		t.Errorf("reused conn %+v, want %+v", *d, want)
	}
}

// TestReleaseMisusePanics: releasing twice, or releasing a link something
// still uses, panics with a message naming the object.
func TestReleaseMisusePanics(t *testing.T) {
	n := New(DefaultConfig(), netem.Constant("edge", 10e6, 100))
	l := n.NewAccessLink(netem.Constant("acc", 4e6, 100))
	c0, c1 := n.Dial(), n.DialVia(l)
	n.ReleaseConn(c0)
	assertPanicsWith(t, func() { n.ReleaseConn(c0) }, "simnet: ReleaseConn of conn 0: already released")
	assertPanicsWith(t, func() { n.ReleaseLink(l) }, `simnet: ReleaseLink of link "acc": 1 connections still open on it`)
	c1.Start(1e6, nil)
	n.Step(1) // past the first byte: the link carries the flow
	backhaul := n.NewAccessLink(netem.Constant("backhaul", 8e6, 100))
	c2 := n.Dial()
	c2.StartVia(1e6, 0, backhaul, nil)
	n.Step(2)
	assertPanicsWith(t, func() { n.ReleaseLink(backhaul) }, `simnet: ReleaseLink of link "backhaul": 1 flows still on it`)
	n.ReleaseConn(c1)
	n.ReleaseLink(l)
	assertPanicsWith(t, func() { n.ReleaseLink(l) }, `simnet: ReleaseLink of link "acc": already released`)
	assertPanicsWith(t, func() { c1.Start(1e5, nil) }, "simnet: Start on closed connection")
}

func assertPanicsWith(t *testing.T, f func(), want string) {
	t.Helper()
	defer func() {
		if got := recover(); got != want {
			t.Errorf("panic %v, want %q", got, want)
		}
	}()
	f()
}

package simnet

// Differential and property tests for the anchored loop (cellengine.go)
// and its hand-off with the virtual-time loop.
//
// Like the vtime suite, the differential contract against the reference
// is tolerance-bounded on completion times (the reference declares
// completion with up to epsBytes remaining; the anchored loop completes
// exactly) plus exact structural requirements: same transfers complete,
// each side's byte ledger balances, and a completed transfer's residual
// is folded exactly, so Remaining() is precisely zero with no epsilon
// dust.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/netem"
)

// TestCellEquivalenceSeeded replays the vtime suite's scripted workloads
// (shared access links included) on a network left to pick its regime by
// flow count: the anchored loop below 40 flows, and on the larger seeds
// the hand-off to the virtual-time loop and back.
func TestCellEquivalenceSeeded(t *testing.T) { equivalenceSeeded(t, false) }

// TestCellCellularTraceEquivalence runs the reference and the anchored
// loop over real cellular access traces — the fleet's actual per-client
// bottleneck, where the access sample changes every second — so the
// NextChange-based wakeups are exercised against profiles that DO change,
// not only the constant edge where they fire never.
func TestCellCellularTraceEquivalence(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			edge := netem.Constant("edge", 100e6, 600)
			linkP := netem.CellularSetSeed(seed)[int(seed)%netem.CellularCount]
			nconn := 4 + rng.Intn(24)
			checkWorkload(t, DefaultConfig(), edge, false, workload{ops: buildWorkload(rng, nconn, 3, 60), nconn: nconn, nlinks: 3, linkP: linkP})
		})
	}
}

// TestCellDoublingAtCompletionInstant pins the one window step lazy
// syncing could get wrong: a doubling scheduled for exactly the instant a
// flow completes is not applied (the reference's end-of-event pass never
// sees the departed flow), so the connection's next request, inside the
// idle-reset grace, starts from the window the flow finished with — in
// either regime. The sizes make the coincidence exact: 14 600 B at the
// 146 kB/s initial window take one RTT.
func TestCellDoublingAtCompletionInstant(t *testing.T) {
	cfg, edge := Config{RTT: 0.1}, netem.Constant("edge", 100e6, 100)
	ops := []workloadOp{
		{kind: 0, conn: 0, size: 14600, via: -1},
		{kind: 2, until: 0.35},
		{kind: 0, conn: 0, size: 2e5, via: -1},
		{kind: 2, until: 100},
	}
	ref := runWorkload(t, newRefTarget(cfg, edge), "reference", workload{ops: ops, nconn: 1})
	for _, vtime := range []bool{false, true} {
		pt := newProdTarget(t, cfg, edge, vtime)
		prod := runWorkload(t, pt, fmt.Sprintf("production (vtime %v)", vtime), workload{ops: ops, nconn: 1})
		if got, grow := prod.completed[0].completed, pt.transfers[0].FlowAt+cfg.RTT; got != grow {
			t.Fatalf("%s: first flow completed at %v, not on its doubling instant %v: the case no longer tests the tie", prod.label, got, grow)
		}
		compareRuns(t, ref, prod)
	}
}

// TestCellExactResidualFold pins the anchored loop's exact conservation:
// a completed transfer has exactly zero remaining bytes — the residual
// is folded at completion, not abandoned as sub-epsilon dust — and the
// network's delivered total equals the sum of completed sizes exactly.
func TestCellExactResidualFold(t *testing.T) {
	n := New(DefaultConfig(), netem.Constant("edge", 10e6, 1000))
	var sizes []float64
	var trs []*Transfer
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 16; i++ {
		c := n.Dial()
		sz := math.Round(rng.Float64()*2e6) + 1
		sizes = append(sizes, sz)
		trs = append(trs, c.Start(sz, nil))
	}
	for done := 0; done < len(trs); {
		done += len(n.Step(1e9))
	}
	var want float64
	for i, tr := range trs {
		if !tr.Done {
			t.Fatalf("transfer %d never completed", i)
		}
		if r := tr.Remaining(); r != 0 {
			t.Errorf("transfer %d: remaining %g after completion, want exactly 0", i, r)
		}
		want += sizes[i]
	}
	if got := n.Delivered(); got != want {
		t.Errorf("delivered %v != sum of sizes %v (diff %g)", got, want, got-want)
	}
}

// TestCellVTimeHandoff drives a network through both hysteresis
// crossings — a fan-in spike past vtimeEnter hands the flows to the
// virtual-time loop, a drain below vtimeExit takes them back — and
// requires the outcome to match the reference within tolerance. Two long
// flows ride through on access links whose sample changes every second:
// one active before the hand-off, one first activated inside vtime. Both
// must follow their profile while the vtime loop owns them and still
// carry the current sample once the anchored loop has them back.
func TestCellVTimeHandoff(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := drainableProfile(rng)
	linkP := &netem.Profile{Name: "flip", SampleDur: 1, Samples: []float64{3e6, 5e6, 2e6, 6e6, 4e6, 7e6, 2.5e6}}
	cfg := randomConfig(rng)
	nconn := vtimeEnter + 24
	const linkBytes = 1e7 // larger than any spike flow: still active at the hand-back
	var ops []workloadOp
	for i := 0; i < nconn; i++ {
		ops = append(ops, workloadOp{kind: 0, conn: i, size: math.Round(rng.Float64()*2e6) + 1e5, via: -1})
	}
	ops = append(ops,
		workloadOp{kind: 0, conn: nconn, size: linkBytes, via: 0},
		workloadOp{kind: 2, until: 2.5},
		workloadOp{kind: 0, conn: nconn + 1, size: linkBytes, via: 1},
		workloadOp{kind: 2, until: 4.5},
		workloadOp{kind: 2, until: 1500})
	spike2 := len(ops)
	for i := 0; i < nconn; i++ {
		ops = append(ops, workloadOp{kind: 0, conn: i, size: math.Round(rng.Float64()*2e6) + 1e5, via: -1})
	}
	ops = append(ops, workloadOp{kind: 2, until: 4000})

	ref := runWorkload(t, newRefTarget(cfg, p), "reference", workload{ops: ops, nconn: nconn + 2, nlinks: 2, linkP: linkP})

	// The same script on the production network, by hand, probing the
	// regime and the link memos at each stage.
	pt := newProdTarget(t, cfg, p, false)
	n, prod := pt.n, &scriptRun{simTarget: pt, label: "production"}
	prod.newLink(linkP)
	prod.newLink(linkP)
	links := pt.links
	for i := 0; i < nconn; i++ {
		prod.start(prod.dial(-1), ops[i].size, 0, -1)
	}
	prod.start(prod.dial(0), linkBytes, 0, -1)
	sawVtime := false
	pt.afterStep = func() { sawVtime = sawVtime || n.vmode }
	// current reports whether every given link carries its profile's
	// sample for the present instant.
	current := func(when string, ls ...*AccessLink) {
		t.Helper()
		for i, l := range ls {
			if want := linkP.At(n.Now()); l.flows == 0 || l.rateBps != want {
				t.Errorf("%s: link %d has %d flows at %v bit/s, want an active link at %v", when, i, l.flows, l.rateBps, want)
			}
		}
	}
	prod.stepTo(t, 2.5)
	if !sawVtime {
		t.Fatalf("not in the virtual-time loop at %d concurrent flows", nconn+1)
	}
	current("in vtime, t=2.5", links[0])
	prod.start(prod.dial(1), linkBytes, 0, -1)
	prod.stepTo(t, 4.5)
	current("in vtime, t=4.5", links...)
	// Step half-second deadlines to the hand-back, then one more: the
	// deadlines sit mid-sample, so a link's memo is current there exactly
	// when the owning loop honoured the boundary before it.
	for until := 5.5; n.vmode; until++ {
		prod.stepTo(t, until)
	}
	prod.stepTo(t, math.Floor(n.Now())+1.5)
	current("after hand-back", links...)
	prod.stepTo(t, 1500)
	if n.vmode {
		t.Error("still in the virtual-time loop after the network drained to zero")
	}
	sawVtime = false
	for i := 0; i < nconn; i++ {
		prod.start(i, ops[spike2+i].size, 0, -1)
	}
	prod.stepTo(t, 4000)
	if !sawVtime {
		t.Error("never re-entered the virtual-time loop on the second spike")
	}
	checkConservation(t, prod)
	compareRuns(t, ref, prod)
}

// TestCellMidFlightReads pins the anchored-view folds: Remaining() and
// Delivered() read mid-run, between materializations, must reflect the
// anchored progress (rate times elapsed) without perturbing the run.
func TestCellMidFlightReads(t *testing.T) {
	n := New(DefaultConfig(), netem.Constant("edge", 8e6, 1000)) // 1e6 bytes/s
	c := n.Dial()
	tr := c.Start(4e6, nil)
	// Step far past slow start so the flow is in a long constant-rate
	// stretch with no events between reads.
	n.Step(2)
	r1, d1 := tr.Remaining(), n.Delivered()
	n.Step(2.5)
	r2, d2 := tr.Remaining(), n.Delivered()
	if !(r2 < r1) {
		t.Errorf("Remaining did not advance between reads: %v then %v", r1, r2)
	}
	if !(d2 > d1) {
		t.Errorf("Delivered did not advance between reads: %v then %v", d1, d2)
	}
	// The anchored ledger must balance at every instant: what the flow
	// has lost equals what the network has gained.
	if diff := math.Abs((tr.Size - r2) - d2); diff > 1e-6 {
		t.Errorf("mid-flight ledger imbalance: size-remaining %v vs delivered %v", tr.Size-r2, d2)
	}
	for done := 0; done < 1; {
		done += len(n.Step(1e9))
	}
	if got := n.Delivered(); got != tr.Size {
		t.Errorf("delivered %v != size %v after completion", got, tr.Size)
	}
}

// TestCellCloseMaterializes pins abandonment accounting under the
// anchored loop: closing a connection mid-flight folds the anchored progress
// into the delivered total before the flow is dropped.
func TestCellCloseMaterializes(t *testing.T) {
	n := New(DefaultConfig(), netem.Constant("edge", 8e6, 1000))
	c := n.Dial()
	c.Start(8e6, nil)
	n.Step(3)
	before := n.Delivered()
	n.Step(5)
	c.Close()
	after := n.Delivered()
	if !(after > before) {
		t.Fatalf("close did not materialize anchored progress: delivered %v then %v", before, after)
	}
	// Nothing flows any more: delivered must be frozen.
	n.Step(100)
	if got := n.Delivered(); got != after {
		t.Errorf("delivered moved after close with no flows: %v -> %v", after, got)
	}
}

// TestCellHotPathZeroAlloc holds the anchored loop to the zero-allocation
// promise at its widest insertion-sort fan-in (TestStepHotPathZeroAlloc
// has the three-flow case): once warmed, a start/step/recycle cycle
// allocates nothing — the event loop runs on scratch state only.
func TestCellHotPathZeroAlloc(t *testing.T) {
	n := New(DefaultConfig(), netem.Constant("c", 50e6, 100))
	conns := make([]*Conn, smallSortLen)
	for i := range conns {
		conns[i] = n.Dial()
	}
	cycle := func() {
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
	for i := 0; i < 4; i++ { // warm scratch and the free list
		cycle()
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("cell hot path allocated %.1f times per cycle", allocs)
	}
}

// BenchmarkCellIdleBoundaries measures what the NextChange wake-ups buy:
// one small transfer at the start of a long horizon on a constant edge.
// None of the ~1000 sample boundaries is an event; the loop jumps
// straight through the idle tail.
func BenchmarkCellIdleBoundaries(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := New(DefaultConfig(), netem.Constant("edge", 10e6, 1000))
		c := n.Dial()
		c.Start(1e6, nil)
		for done := 0; done < 1; {
			done += len(n.Step(1e9))
		}
		n.Step(1000) // idle tail across the rest of the horizon
	}
}

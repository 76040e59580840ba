package simnet

// Differential and property tests for the cell engine (cellengine.go).
//
// The cell engine computes the same max-min rates as the scan engine but
// anchors flow progress between rate changes and wakes only on profile
// VALUE changes (netem NextChange), not on every sample boundary. Like
// the vtime suite, the differential contract is tolerance-bounded on
// completion times (the scan engine declares completion with up to
// epsBytes remaining; the cell engine completes exactly) plus exact
// structural requirements: same transfers complete, per-engine byte
// conservation holds, and — stronger than either other engine — a
// completed transfer's residual is folded exactly, so Remaining() is
// precisely zero with no epsilon dust.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/netem"
)

// TestCellEquivalenceSeeded replays the vtime suite's scripted
// high-fan-in workloads (shared access links included) on the scan and
// cell engines: same transfers, tolerance-equal completion times, exact
// per-engine byte conservation.
func TestCellEquivalenceSeeded(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nconn := 1 + rng.Intn(96)
			nlinks := rng.Intn(6)
			p := randomProfile(rng)
			for i, s := range p.Samples {
				if s == 0 {
					p.Samples[i] = 5e5
				}
			}
			linkP := netem.Constant("access", 4e6, 7)
			cfg := randomConfig(rng)
			ops := buildWorkload(rng, nconn, nlinks, 80)
			scan := runWorkload(t, cfg, p, linkP, EngineScan, ops, nconn, nlinks)
			cell := runWorkload(t, cfg, p, linkP, EngineCell, ops, nconn, nlinks)
			checkConservation(t, scan, "scan")
			checkConservation(t, cell, "cell")
			compareRuns(t, scan, cell)
		})
	}
}

// TestCellCellularTraceEquivalence runs the two engines over real
// cellular access traces — the fleet's actual per-client bottleneck,
// where the access sample changes every second — so the NextChange-based
// wakeups are exercised against profiles that DO change, not only the
// constant edge where they fire never.
func TestCellCellularTraceEquivalence(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			edge := netem.Constant("edge", 100e6, 600)
			linkP := netem.CellularSetSeed(seed)[int(seed)%netem.CellularCount]
			cfg := DefaultConfig()
			nconn := 4 + rng.Intn(24)
			ops := buildWorkload(rng, nconn, 3, 60)
			scan := runWorkload(t, cfg, edge, linkP, EngineScan, ops, nconn, 3)
			cell := runWorkload(t, cfg, edge, linkP, EngineCell, ops, nconn, 3)
			checkConservation(t, scan, "scan")
			checkConservation(t, cell, "cell")
			compareRuns(t, scan, cell)
		})
	}
}

// TestCellExactResidualFold pins the cell engine's conservation upgrade:
// a completed transfer has exactly zero remaining bytes — the residual
// is folded at completion, not abandoned as sub-epsilon dust — and the
// network's delivered total equals the sum of completed sizes exactly.
func TestCellExactResidualFold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = EngineCell
	n := New(cfg, netem.Constant("edge", 10e6, 1000))
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

// TestCellVTimeHandoff drives EngineCell through both hysteresis
// crossings — a fan-in spike past vtimeEnter hands the flows to the
// virtual-time engine, a drain below vtimeExit takes them back — and
// requires the outcome to match EngineScan within tolerance. Two long
// flows ride through on access links whose sample changes every second:
// one active before the hand-off, one first activated inside vtime. Both
// must follow their profile while the vtime engine owns them and still
// carry the current sample once the cell engine has them back.
func TestCellVTimeHandoff(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProfile(rng)
	for i, s := range p.Samples {
		if s == 0 {
			p.Samples[i] = 5e5
		}
	}
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

	scan := runWorkload(t, cfg, p, linkP, EngineScan, ops, nconn+2, 2)

	cfg.Engine = EngineCell
	n := New(cfg, p)
	links := []*AccessLink{n.NewAccessLink(linkP), n.NewAccessLink(linkP)}
	conns := make([]*Conn, nconn)
	for i := range conns {
		conns[i] = n.Dial()
		conns[i].Start(ops[i].size, nil)
	}
	n.DialVia(links[0]).Start(linkBytes, nil)
	var cell []completionRec
	sawVtime := false
	collect := func(until float64) {
		for {
			done := n.Step(until)
			sawVtime = sawVtime || n.VTimeActive()
			checkVTimeCapBounds(t, n) // from the first event after enterVTime on
			if len(done) == 0 {
				return
			}
			for _, tr := range done {
				cell = append(cell, completionRec{tr.Conn.seq, tr.Size, tr.Completed})
			}
		}
	}
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
	collect(2.5)
	if !sawVtime {
		t.Fatalf("EngineCell not in vtime mode at %d concurrent flows", nconn+1)
	}
	current("in vtime, t=2.5", links[0])
	n.DialVia(links[1]).Start(linkBytes, nil)
	collect(4.5)
	current("in vtime, t=4.5", links...)
	// Step half-second deadlines to the hand-back, then one more: the
	// deadlines sit mid-sample, so a link's memo is current there exactly
	// when the owning engine honoured the boundary before it.
	for until := 5.5; n.VTimeActive(); until++ {
		collect(until)
	}
	if !n.CellActive() {
		t.Fatal("EngineCell not back in cell mode after the drain")
	}
	collect(math.Floor(n.Now()) + 1.5)
	current("after hand-back", links...)
	collect(1500)
	if n.VTimeActive() || !n.CellActive() {
		t.Error("EngineCell not in cell mode after the fleet drained to zero")
	}
	sawVtime = false
	for i, c := range conns {
		c.Start(ops[spike2+i].size, nil)
	}
	collect(4000)
	if !sawVtime {
		t.Error("EngineCell never re-entered vtime mode on the second spike")
	}
	if len(cell) != len(scan.completed) {
		t.Fatalf("completion count: cell %d != scan %d", len(cell), len(scan.completed))
	}
	compareRuns(t, scan, &engineRun{n: n, completed: cell})
}

// TestCellMidFlightReads pins the anchored-view folds: Remaining() and
// Delivered() read mid-run, between materializations, must reflect the
// anchored progress (rate times elapsed) without perturbing the run.
func TestCellMidFlightReads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = EngineCell
	n := New(cfg, netem.Constant("edge", 8e6, 1000)) // 1e6 bytes/s
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

// TestCellCloseMaterializes pins abandonment accounting under the cell
// engine: closing a connection mid-flight folds the anchored progress
// into the delivered total before the flow is dropped.
func TestCellCloseMaterializes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = EngineCell
	n := New(cfg, netem.Constant("edge", 8e6, 1000))
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

// TestCellHotPathZeroAlloc extends the zero-allocation promise to the
// cell engine: once warmed, a start/step/recycle cycle allocates
// nothing — the anchored event loop runs on scratch state only. The
// fan-in stays at smallSortLen so rate allocation uses the insertion-
// sort fast path, the same bound the scan engine's promise carries.
func TestCellHotPathZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = EngineCell
	n := New(cfg, netem.Constant("c", 50e6, 100))
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

// BenchmarkCellIdleBoundaries measures the NextChange win in isolation:
// one small transfer at the start of a long horizon on a constant edge.
// The scan engine wakes at every one of the ~1000 sample boundaries;
// the cell engine sees zero profile events and jumps straight through.
func BenchmarkCellIdleBoundaries(b *testing.B) {
	for _, eng := range []struct {
		name string
		e    Engine
	}{{"scan", EngineScan}, {"cell", EngineCell}} {
		b.Run(eng.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Engine = eng.e
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := New(cfg, netem.Constant("edge", 10e6, 1000))
				c := n.Dial()
				c.Start(1e6, nil)
				for done := 0; done < 1; {
					done += len(n.Step(1e9))
				}
				n.Step(1000) // idle tail across the rest of the horizon
			}
		})
	}
}

package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/netem"
)

// These tests pin the upstream-role AccessLink semantics the cdn tier
// builds on: StartVia's extra first-byte latency and the even-split
// backhaul cap that cache misses share — in both regimes, since each
// loop folds the upstream share into its own cap recompute.

// TestStartViaExtraLatency: a cache-miss transfer pays the extra
// latency before its first byte, nothing else changes.
func TestStartViaExtraLatency(t *testing.T) {
	n := New(cfgNoRamp(), netem.Constant("c", 8e6, 100))
	c := n.Dial()
	tr := c.StartVia(1e6, 0.08, nil, nil)
	n.Step(100)
	// handshake(0.1) + request(0.1 + 0.08) + 1 s payload.
	if math.Abs(tr.Completed-1.28) > 1e-6 {
		t.Fatalf("completed at %v, want 1.28", tr.Completed)
	}
}

// TestBackhaulEvenSplit: two transfers on separate connections, each
// with ample edge and access capacity, sharing one 8 Mbit/s upstream
// link: the backhaul cap halves their rates.
func TestBackhaulEvenSplit(t *testing.T) {
	for _, vtime := range []bool{false, true} {
		n := New(cfgNoRamp(), netem.Constant("edge", 100e6, 100))
		if vtime {
			pinVTime(n)
		}
		backhaul := n.NewAccessLink(netem.Constant("backhaul", 8e6, 100))
		a := n.Dial().StartVia(1e6, 0, backhaul, nil)
		b := n.Dial().StartVia(1e6, 0, backhaul, nil)
		var done int
		for done < 2 {
			done += len(n.Step(100))
		}
		// 0.2 s latency + 1e6 bytes at 0.5 MB/s each = 2.2 s.
		if math.Abs(a.Completed-2.2) > 1e-6 || math.Abs(b.Completed-2.2) > 1e-6 {
			t.Fatalf("vtime %v: completions %.4f/%.4f, want 2.2 (even backhaul split)", vtime, a.Completed, b.Completed)
		}
	}
}

// TestBackhaulDoesNotCapHits: a transfer without an upstream link
// (edge hit) is unaffected by a congested backhaul carrying others.
func TestBackhaulDoesNotCapHits(t *testing.T) {
	n := New(cfgNoRamp(), netem.Constant("edge", 100e6, 100))
	backhaul := n.NewAccessLink(netem.Constant("backhaul", 1e6, 100))
	miss := n.Dial().StartVia(1e6, 0, backhaul, nil)
	hit := n.Dial().Start(1e6, nil)
	var done int
	for done < 2 {
		done += len(n.Step(100))
	}
	// The hit shares only the 100 Mbit/s edge with the miss; the miss is
	// pinned to 1 Mbit/s backhaul. Edge share never binds for the hit:
	// 0.2 + 8e6/(100e6-1e6... ) — conservatively, the hit must finish in
	// well under a second of payload time while the miss takes ~8 s.
	if hit.Completed > 0.5 {
		t.Fatalf("edge hit throttled by the backhaul: completed at %.3f", hit.Completed)
	}
	if miss.Completed < 8 {
		t.Fatalf("miss ignored the backhaul cap: completed at %.3f", miss.Completed)
	}
}

// TestBackhaulConservation: bytes delivered through a shared backhaul
// never exceed its capacity integral.
func TestBackhaulConservation(t *testing.T) {
	prof := netem.Constant("backhaul", 4e6, 100)
	n := New(cfgNoRamp(), netem.Constant("edge", 100e6, 100))
	backhaul := n.NewAccessLink(prof)
	var trs []*Transfer
	for i := 0; i < 6; i++ {
		trs = append(trs, n.Dial().StartVia(5e5, 0, backhaul, nil))
	}
	var done int
	for done < len(trs) {
		done += len(n.Step(200))
	}
	last := 0.0
	for _, tr := range trs {
		if tr.Completed > last {
			last = tr.Completed
		}
	}
	delivered := 6 * 5e5
	capBytes := prof.Integral(0, last) / 8
	if delivered > capBytes*1.001 {
		t.Fatalf("delivered %.0f B through a backhaul that carried at most %.0f B", float64(delivered), capBytes)
	}
}

// TestBackhaulEquivalence holds both regimes to the reference with the
// upstream role in play: the seeded high-fan-in scripts over cellular
// access links, every odd slot's responses arriving 80 ms later through
// one shared 12 Mbit/s backhaul — a flow capped by its window, its access
// share, its backhaul share or the edge, whichever is tightest.
func TestBackhaulEquivalence(t *testing.T) {
	for seed := int64(200); seed < 208; seed++ {
		for _, vtime := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/vtime=%v", seed, vtime), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				nconn := 8 + rng.Intn(64)
				w := workload{
					ops: buildWorkload(rng, nconn, 4, 60), nconn: nconn, nlinks: 4,
					linkP:    netem.Cellular(1 + int(seed)%netem.CellularCount),
					backhaul: netem.Constant("backhaul", 12e6, 100),
				}
				checkWorkload(t, DefaultConfig(), netem.Constant("edge", 40e6, 600), vtime, w)
			})
		}
	}
}

package simnet

// Differential and property tests for the virtual-time loop (vtime.go),
// and the script harness every differential test in the package replays:
// once on the reference network (reference_test.go), once on the
// production one. Comparisons are tolerance-bounded on times and totals,
// plus exact structural requirements: the same transfers complete, in a
// consistent order, with each side's byte ledger balancing.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/netem"
)

// timeTol bounds the completion-time disagreement between the reference
// and the production network: the reference declares completion with up
// to epsBytes (1e-6) remaining, so times differ by at most eps/rate plus
// float accumulation dust over a long run.
const timeTol = 1e-5

// workloadOp is one scripted event; the script is generated once and
// replayed identically on both sides so they see the same requests at the
// same times regardless of tolerance-level divergence.
type workloadOp struct {
	kind  int // 0 start, 1 close+redial, 2 step
	conn  int
	size  float64
	until float64
	via   int // access link index, -1 for none
}

// buildWorkload generates a seeded high-fan-in script: nconn
// connections (optionally spread over a few shared access links),
// random starts, occasional mid-flight closes, and absolute step
// deadlines so both sides advance in lockstep.
func buildWorkload(rng *rand.Rand, nconn, nlinks, events int) []workloadOp {
	ops := make([]workloadOp, 0, events+2*nconn)
	now := 0.0
	for i := 0; i < nconn; i++ {
		via := -1
		if nlinks > 0 && rng.Intn(2) == 0 {
			via = rng.Intn(nlinks)
		}
		ops = append(ops, workloadOp{kind: 0, conn: i, size: math.Round(rng.Float64()*3e6) + 1, via: via})
	}
	for ev := 0; ev < events; ev++ {
		switch op := rng.Intn(10); {
		case op < 5:
			via := -1
			if nlinks > 0 && rng.Intn(2) == 0 {
				via = rng.Intn(nlinks)
			}
			ops = append(ops, workloadOp{kind: 0, conn: rng.Intn(nconn), size: math.Round(rng.Float64()*3e6) + 1, via: via})
		case op < 6:
			via := -1
			if nlinks > 0 && rng.Intn(2) == 0 {
				via = rng.Intn(nlinks)
			}
			ops = append(ops, workloadOp{kind: 1, conn: rng.Intn(nconn), via: via})
		default:
			now += rng.Float64() * 0.8
			ops = append(ops, workloadOp{kind: 2, until: now})
		}
	}
	// Drain: step far enough that every surviving transfer completes.
	ops = append(ops, workloadOp{kind: 2, until: now + 2000})
	return ops
}

// workload is a script and the topology it runs over: nconn connection
// slots, nlinks shared access links on linkP and, when backhaul is set,
// one upstream link on it that the odd slots' responses also traverse,
// from 80 ms further away — cache misses, every other client.
type workload struct {
	ops           []workloadOp
	nconn, nlinks int
	linkP         *netem.Profile
	backhaul      *netem.Profile
}

// runWorkload replays a workload on a fresh target. A start on a busy
// connection is skipped — the script is identical on both sides, and with
// deadline-driven steps the busy state at each op is too, because both
// complete the same transfers between the same deadlines (checked
// post-hoc by comparing completion counts).
func runWorkload(t *testing.T, tgt simTarget, label string, w workload) *scriptRun {
	t.Helper()
	r := &scriptRun{simTarget: tgt, label: label}
	for i := 0; i < w.nlinks; i++ {
		r.newLink(w.linkP)
	}
	backhaul := -1
	if w.backhaul != nil {
		backhaul = r.newLink(w.backhaul)
	}
	slots := make([]int, w.nconn)
	for i := range slots {
		slots[i] = -1
	}
	for _, op := range w.ops {
		switch op.kind {
		case 0:
			if slots[op.conn] < 0 {
				slots[op.conn] = r.dial(op.via)
			}
			switch c := slots[op.conn]; {
			case r.busy(c):
			case backhaul >= 0 && op.conn%2 == 1:
				r.start(c, op.size, 0.08, backhaul)
			default:
				r.start(c, op.size, 0, -1)
			}
		case 1:
			if c := slots[op.conn]; c >= 0 {
				r.close(c)
				slots[op.conn] = r.dial(op.via)
			}
		case 2:
			r.stepTo(t, op.until)
		}
	}
	return r
}

// checkWorkload replays one workload on the reference and on a production
// network — pinned to the virtual-time loop, or left to pick its regime
// by flow count — and holds the two runs to the differential contract.
func checkWorkload(t *testing.T, cfg Config, p *netem.Profile, vtime bool, w workload) {
	t.Helper()
	ref := runWorkload(t, newRefTarget(cfg, p), "reference", w)
	prod := runWorkload(t, newProdTarget(t, cfg, p, vtime), "production", w)
	checkConservation(t, ref)
	checkConservation(t, prod)
	compareRuns(t, ref, prod)
}

// checkVTimeCapBounds asserts the rebalance heaps' cap invariant on a
// network in vtime mode (a no-op otherwise). An uncapped flow's uncCap
// key is a lower bound of its effective cap and sits at or below the
// capFloor of both its links; a capped flow serves at exactly its
// effective cap and pins both its links' floors at +Inf, so their
// profile flips always take the exact path.
func checkVTimeCapBounds(t *testing.T, n *Network) {
	t.Helper()
	if !n.vmode {
		return
	}
	v := n.v
	for i, tr := range v.uncCap.val {
		k, c := v.uncCap.key[i], tr.Conn.effCap()
		if tr.vClass != vUnc || k > c {
			t.Fatalf("t=%v conn %d: class %d, uncCap key %v above effective cap %v", n.now, tr.Conn.seq, tr.vClass, k, c)
		}
		for _, l := range [...]*AccessLink{tr.Conn.access, tr.upstream} {
			if l != nil && k > l.capFloor {
				t.Fatalf("t=%v conn %d: uncCap key %v above its link's capFloor %v", n.now, tr.Conn.seq, k, l.capFloor)
			}
		}
	}
	for _, tr := range v.capCap.val {
		if c := tr.Conn.effCap(); tr.vClass != vCapd || tr.rate != c {
			t.Fatalf("t=%v conn %d: class %d, serving at %v, effective cap %v", n.now, tr.Conn.seq, tr.vClass, tr.rate, c)
		}
		for _, l := range [...]*AccessLink{tr.Conn.access, tr.upstream} {
			if l != nil && !math.IsInf(l.capFloor, 1) {
				t.Fatalf("t=%v conn %d: capped flow on a link with finite capFloor %v", n.now, tr.Conn.seq, l.capFloor)
			}
		}
	}
}

// checkConservation asserts one side's byte ledger: delivered bytes equal
// the bytes drained from every transfer ever started, and a completed
// transfer holds none.
func checkConservation(t *testing.T, r *scriptRun) {
	t.Helper()
	delivered, drained, dust := r.ledger()
	if diff := math.Abs(delivered - drained); diff > 1e-3 {
		t.Fatalf("%s: delivered %v != drained %v (diff %g)", r.label, delivered, drained, diff)
	}
	if dust != 0 {
		t.Fatalf("%s: %d completed transfers still hold bytes", r.label, dust)
	}
}

// compareRuns checks the two sides completed the same transfers with
// tolerance-bounded times and totals. Completion order may legitimately
// swap for transfers finishing within the tolerance of each other, so
// records are matched per connection (per-conn order is program order:
// one outstanding request per connection).
func compareRuns(t *testing.T, ref, got *scriptRun) {
	t.Helper()
	if len(ref.completed) != len(got.completed) {
		t.Fatalf("completion count: %s %d != %s %d", ref.label, len(ref.completed), got.label, len(got.completed))
	}
	perConn := func(r *scriptRun) map[int][]completionRec {
		m := make(map[int][]completionRec)
		for _, c := range r.completed {
			m[c.connSeq] = append(m[c.connSeq], c)
		}
		return m
	}
	rm, gm := perConn(ref), perConn(got)
	for seq, rc := range rm {
		gc := gm[seq]
		if len(rc) != len(gc) {
			t.Fatalf("conn %d: %s completed %d transfers, %s %d", seq, ref.label, len(rc), got.label, len(gc))
		}
		for i := range rc {
			if rc[i].size != gc[i].size {
				t.Fatalf("conn %d transfer %d: size %v != %v", seq, i, rc[i].size, gc[i].size)
			}
			tol := timeTol * (1 + math.Abs(rc[i].completed))
			if d := math.Abs(rc[i].completed - gc[i].completed); d > tol {
				t.Fatalf("conn %d transfer %d (size %v): completed %v (%s) vs %v (%s), diff %g > %g",
					seq, i, rc[i].size, rc[i].completed, ref.label, gc[i].completed, got.label, d, tol)
			}
		}
	}
	rd, _, _ := ref.ledger()
	gd, _, _ := got.ledger()
	if d := math.Abs(rd - gd); d > 1e-3+1e-9*math.Abs(rd) {
		t.Fatalf("delivered: %s %v vs %s %v (diff %g)", ref.label, rd, got.label, gd, d)
	}
}

// seededWorkload draws the fuzz harness's scenario from one stream: an
// edge profile that can always drain (conservation needs it), a transport
// config, and a script over up to 96 connections and 5 shared links.
func seededWorkload(rng *rand.Rand, nconn, nlinks int) (Config, *netem.Profile, workload) {
	p := drainableProfile(rng)
	cfg := randomConfig(rng)
	return cfg, p, workload{ops: buildWorkload(rng, nconn, nlinks, 80), nconn: nconn, nlinks: nlinks, linkP: netem.Constant("access", 4e6, 7)}
}

// FuzzEngineEquivalence is the seeded differential harness: a scripted
// high-fan-in workload (shared access links included) replayed on the
// reference and on the virtual-time loop must complete the same transfers
// at tolerance-equal times with each side's ledger balancing.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0))
	f.Add(int64(2), uint8(48), uint8(0))
	f.Add(int64(3), uint8(64), uint8(3))
	f.Add(int64(4), uint8(90), uint8(5))
	f.Add(int64(5), uint8(12), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nconnB, nlinksB uint8) {
		nconn := 1 + int(nconnB)%96
		nlinks := int(nlinksB) % 6
		cfg, p, w := seededWorkload(rand.New(rand.NewSource(seed)), nconn, nlinks)
		checkWorkload(t, cfg, p, true, w)
	})
}

// equivalenceSeeded replays the fuzz harness over a fixed seed sweep so
// the differential property runs on every plain `go test` (and under
// -race in CI), not only in fuzz mode.
func equivalenceSeeded(t *testing.T, vtime bool) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nconn := 1 + rng.Intn(96)
			nlinks := rng.Intn(6)
			cfg, p, w := seededWorkload(rng, nconn, nlinks)
			checkWorkload(t, cfg, p, vtime, w)
		})
	}
}

// TestEngineEquivalenceSeeded is the sweep on the virtual-time loop alone.
func TestEngineEquivalenceSeeded(t *testing.T) { equivalenceSeeded(t, true) }

// TestVTimeFairnessOrder pins the fairness property in closed form:
// K uncapped flows sharing one link under processor sharing finish in
// ascending remaining-bytes order at exactly the GPS completion times.
func TestVTimeFairnessOrder(t *testing.T) {
	const K = 24
	const bps = 1e7
	cfg := Config{
		RTT: 0.05,
		// A first window larger than the link keeps every flow uncapped
		// from its first byte, so the closed form applies exactly.
		InitialWindowSegments: 2e4,
	}
	p := netem.Constant("flat", bps, 1000)
	n := pinVTime(New(cfg, p))
	sizes := make([]float64, K)
	for i := range sizes {
		sizes[i] = float64(1+i) * 1e5 // distinct, ascending
	}
	// Start in shuffled order so finish order is earned, not inherited.
	rng := rand.New(rand.NewSource(42))
	transfers := make([]*Transfer, K)
	for _, i := range rng.Perm(K) {
		transfers[i] = n.Dial().Start(sizes[i], nil)
	}
	flowAt := transfers[0].FlowAt // identical for all: same dial time, same handshake

	var order []int
	for len(order) < K {
		for _, tr := range n.Step(1e6) {
			for i := range transfers {
				if transfers[i] == tr {
					order = append(order, i)
				}
			}
		}
	}
	C := bps / 8
	expect := flowAt
	prev := 0.0
	for rank, idx := range order {
		if idx != rank {
			t.Fatalf("finish order[%d] = flow %d (size %v); want ascending sizes", rank, idx, sizes[idx])
		}
		expect += float64(K-rank) * (sizes[idx] - prev) / C
		prev = sizes[idx]
		if d := math.Abs(transfers[idx].Completed - expect); d > 1e-6*expect {
			t.Fatalf("flow %d completed at %v; GPS closed form %v (diff %g)", idx, transfers[idx].Completed, expect, d)
		}
	}
}

// TestVTimeLazyReadConsistency checks the lazy-materialization contract
// mid-flight: Remaining is monotone non-increasing and within [0, Size],
// the O(1) Delivered matches the per-transfer ledger at every probe, and
// observer reads are pure — a run probed after every step ends
// bit-identical to an unprobed twin.
func TestVTimeLazyReadConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := drainableProfile(rng)
	cfg := randomConfig(rng)
	w := workload{ops: buildWorkload(rng, 40, 3, 60), nconn: 40, nlinks: 3, linkP: netem.Constant("access", 3e6, 5)}

	probed, silent := newProdTarget(t, cfg, p, true), newProdTarget(t, cfg, p, true)
	lastRem := map[*Transfer]float64{}
	probed.afterStep = func() {
		var drained float64
		for _, tr := range probed.transfers {
			rem := tr.Remaining()
			if rem < 0 || rem > tr.Size {
				t.Fatalf("Remaining %v outside [0, %v]", rem, tr.Size)
			}
			if prev, ok := lastRem[tr]; ok && rem > prev+1e-9 {
				t.Fatalf("Remaining increased: %v -> %v", prev, rem)
			}
			lastRem[tr] = rem
			if r := tr.Rate(); r < 0 || math.IsNaN(r) {
				t.Fatalf("Rate %v", r)
			}
			drained += tr.Size - rem
		}
		if d := math.Abs(probed.n.Delivered() - drained); d > 1e-3 {
			t.Fatalf("Delivered %v != per-transfer drained %v (diff %g)", probed.n.Delivered(), drained, d)
		}
	}
	runWorkload(t, probed, "probed", w)
	runWorkload(t, silent, "silent", w)
	// Purity: every observable of the probed run equals the silent twin's.
	if probed.n.Delivered() != silent.n.Delivered() {
		t.Fatalf("reads perturbed Delivered: %v vs %v", probed.n.Delivered(), silent.n.Delivered())
	}
	if len(probed.transfers) != len(silent.transfers) {
		t.Fatalf("probed run diverged: %d vs %d transfers started", len(probed.transfers), len(silent.transfers))
	}
	for i, pt := range probed.transfers {
		if st := silent.transfers[i]; pt.Remaining() != st.Remaining() || pt.Completed != st.Completed {
			t.Fatalf("reads perturbed transfer %d: remaining %v/%v completed %v/%v",
				i, pt.Remaining(), st.Remaining(), pt.Completed, st.Completed)
		}
	}
}

// stormProfiles returns the 14 cellular traces: like the fleet's links,
// every one may flip at each whole second.
func stormProfiles() []*netem.Profile { return netem.CellularSet() }

// stormShape sizes a link storm: nconn connections, perLink of them
// behind each access link, under a constant edge of edgeBps.
type stormShape struct {
	nconn, perLink int
	edgeBps        float64
	connCaps       []float64 // Config.ConnCapSequence: per-connection static caps, bits/s
	rtt            float64   // Config.RTT; 0 for the default
}

// runLinkStorm is the shape the scripted workloads above lack: many
// connections behind their OWN access links (link i over
// profs[i%len(profs)], sh.perLink connections each), under one constant
// edge. Every connection fetches two objects; the second request goes
// out at the first quarter-second deadline after the first completed, so
// links go idle and re-activate mid-second and both sides see identical
// request times. closeConn >= 0 closes that connection, mid-transfer, at
// closeAt.
func runLinkStorm(t *testing.T, tgt simTarget, label string, profs []*netem.Profile, sh stormShape, closeConn int, closeAt float64) *scriptRun {
	t.Helper()
	r := &scriptRun{simTarget: tgt, label: label}
	rng := rand.New(rand.NewSource(17))
	left := make([]int, sh.nconn)
	for i := range left {
		if i%sh.perLink == 0 {
			r.newLink(profs[i/sh.perLink%len(profs)])
		}
		r.dial(i / sh.perLink)
		left[i] = 2
	}
	want := 2 * sh.nconn
	for deadline := 0.0; len(r.completed) < want; deadline += 0.25 {
		if deadline > 2000 {
			t.Fatalf("%s: %d of %d transfers completed by t=%v", label, len(r.completed), want, deadline)
		}
		if closeConn >= 0 && deadline >= closeAt {
			if !r.busy(closeConn) {
				t.Fatalf("conn %d has nothing in flight to abandon at t=%v", closeConn, deadline)
			}
			r.close(closeConn)
			want -= 1 + left[closeConn]
			left[closeConn], closeConn = 0, -1
		}
		for i := range left {
			if left[i] > 0 && !r.busy(i) && deadline >= 0.25*float64(i%sh.perLink) {
				left[i]--
				r.start(i, math.Round(rng.Float64()*4e5)+5e4, 0, -1)
			}
		}
		r.stepTo(t, deadline+0.25)
	}
	return r
}

// checkLinkStorm runs one storm on the reference and on the virtual-time
// loop and requires compareRuns' equivalence plus the order property:
// completions arrive in the same order (two may swap only when the
// reference finished them within the time tolerance of each other). The
// returned count is the number of production Step returns that found
// some link carrying a capped and an uncapped flow together.
func checkLinkStorm(t *testing.T, profs []*netem.Profile, sh stormShape, closeConn int, closeAt float64) (mixedSteps int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ConnCapSequence = sh.connCaps
	cfg.RTT = sh.rtt
	edge := netem.Constant("edge", sh.edgeBps, 1000)
	pt := newProdTarget(t, cfg, edge, true)
	pt.afterStep = func() {
		for _, l := range pt.n.links {
			var seen [vCapd + 1]bool
			for _, m := range l.members {
				seen[m.vClass] = true
			}
			if seen[vUnc] && seen[vCapd] {
				mixedSteps++
				break
			}
		}
	}
	ref := runLinkStorm(t, newRefTarget(cfg, edge), "reference", profs, sh, closeConn, closeAt)
	vt := runLinkStorm(t, pt, "vtime", profs, sh, closeConn, closeAt)
	checkConservation(t, ref)
	checkConservation(t, vt)
	compareRuns(t, ref, vt)
	type flowKey struct {
		connSeq int
		size    float64
	}
	refAt := make(map[flowKey]float64, len(ref.completed))
	for _, rc := range ref.completed {
		refAt[flowKey{rc.connSeq, rc.size}] = rc.completed
	}
	for i, rc := range ref.completed {
		vc := vt.completed[i]
		if d := math.Abs(refAt[flowKey{vc.connSeq, vc.size}] - rc.completed); d > timeTol*(1+rc.completed) {
			t.Fatalf("completion %d: the reference finished conn %d, vtime conn %d, which the reference finished %g s apart", i, rc.connSeq, vc.connSeq, d)
		}
	}
	return mixedSteps
}

// saturated256 is the flash-crowd cell in miniature: 256 single-flow
// links under a 40 Mbit/s edge whose share sits below every link's.
var saturated256 = stormShape{nconn: 256, perLink: 1, edgeBps: 40e6}

// TestVTimeAlignedBoundaryStorm runs the storm over the 1 s cellular
// traces, so every active link's profile boundary falls on the same
// instant.
func TestVTimeAlignedBoundaryStorm(t *testing.T) {
	checkLinkStorm(t, stormProfiles(), saturated256, -1, 0)
}

// TestVTimeSlowStartStorm stretches the round trip to half a second, so
// a window takes nine doublings over 4.5 s to reach steady state and is,
// for several profile boundaries, the binding term of an uncapped flow's
// cap: doublings raise caps whose bounds must stay where the links'
// floors vouch for them.
func TestVTimeSlowStartStorm(t *testing.T) {
	sh := saturated256
	sh.rtt = 0.5
	checkLinkStorm(t, stormProfiles(), sh, -1, 0)
}

// TestVTimeSharedLinkStorm puts three connections behind each of 128
// links, with static per-connection caps of 2, 8 and 1 Mbit/s, under an
// edge whose share sits inside the spread of those caps and the link
// shares: links carry capped and uncapped members together and cross
// profile boundaries while they do — the flips the capFloor rule must
// never skip.
func TestVTimeSharedLinkStorm(t *testing.T) {
	sh := stormShape{nconn: 384, perLink: 3, edgeBps: 300e6, connCaps: []float64{2e6, 8e6, 1e6}}
	if mixed := checkLinkStorm(t, stormProfiles(), sh, -1, 0); mixed < 100 {
		t.Fatalf("only %d steps ended with a capped and an uncapped flow sharing a link; the storm no longer exercises mixed links", mixed)
	}
}

// TestVTimeStaleCapBound walks one flow's cap bound through its whole
// life cycle against the reference. 64 single-flow links share a
// 32 Mbit/s edge, so the share starts at 62.5 kB/s, below every link's;
// link 0 steps 1 -> 20 -> 0.5 Mbit/s, 4 s at each, while the others
// hold 16 Mbit/s. The rise to 20 Mbit/s leaves flow 0's bound at the
// 1 Mbit/s share; 60 small flows then complete and lift the share to
// 1 MB/s, past that stale bound but below the true 2.5 MB/s cap — the
// flow must stay uncapped, its bound tightened to the exact cap. The
// drop to 0.5 Mbit/s must then cap it at exactly the new share.
func TestVTimeStaleCapBound(t *testing.T) {
	const nlinks = 64
	linkP := &netem.Profile{Name: "step", Samples: []float64{1e6, 1e6, 1e6, 1e6, 20e6, 20e6, 20e6, 20e6, 0.5e6, 0.5e6, 0.5e6, 0.5e6}}
	cfg := DefaultConfig()
	cfg.InitialWindowSegments = 2e4 // no slow-start cap: link shares are the only caps
	edge := netem.Constant("edge", 32e6, 1000)
	pt, rt := newProdTarget(t, cfg, edge, true), newRefTarget(cfg, edge)
	// run replays the script and reports flow 0's rate after each of the
	// three phases.
	run := func(r *scriptRun, rate0 func() float64, atRaisedShare func()) (rates [3]float64) {
		for i := 0; i < nlinks; i++ {
			p, size := netem.Constant("flat", 16e6, 1000), 3e5+2e3*float64(i)
			if i == 0 {
				p = linkP
			}
			if i < 4 {
				size = 1e8 // outlives the script: the share settles at edge/4
			}
			r.start(r.dial(r.newLink(p)), size, 0, -1)
		}
		for i, until := range []float64{3.9, 7.9, 8.5} {
			r.stepTo(t, until)
			rates[i] = rate0()
			if i == 1 {
				atRaisedShare()
			}
		}
		for _, c := range r.completed {
			if c.completed < 4 || c.completed > 7.9 {
				t.Fatalf("%s: conn %d completed at %v, outside link 0's 20 Mbit/s sample", r.label, c.connSeq, c.completed)
			}
		}
		return rates
	}
	ref := &scriptRun{simTarget: rt, label: "reference"}
	refRates := run(ref, func() float64 { return rt.transfers[0].rate }, func() {})
	vt := &scriptRun{simTarget: pt, label: "vtime"}
	rates := run(vt, func() float64 { return pt.transfers[0].Rate() }, func() {
		if tr := pt.transfers[0]; tr.vClass != vUnc || pt.n.v.uncCap.key[tr.hCap] != 20e6/8 {
			t.Errorf("at the raised share: class %d, bound %v, want uncapped with the bound at the exact cap %v", tr.vClass, pt.n.v.uncCap.key[tr.hCap], 20e6/8)
		}
	})
	if len(vt.completed) != nlinks-4 {
		t.Fatalf("%d of %d small flows completed", len(vt.completed), nlinks-4)
	}
	checkConservation(t, ref)
	checkConservation(t, vt)
	compareRuns(t, ref, vt)
	want := [3]float64{32e6 / 8 / nlinks, 32e6 / 8 / 4, 0.5e6 / 8}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-9*want[i] || math.Abs(refRates[i]-want[i]) > 1e-9*want[i] {
			t.Errorf("probe %d: flow 0 served at %v (vtime) / %v (reference), want %v", i, rates[i], refRates[i], want[i])
		}
	}
	if tr := pt.transfers[0]; tr.vClass != vCapd || rates[2] != want[2] {
		t.Errorf("after the drop: class %d at %v B/s, want capped at exactly %v", tr.vClass, rates[2], want[2])
	}
}

// TestVTimeHotPathZeroAlloc extends the zero-allocation promise to the
// virtual-time loop: once the heaps are warmed, a start/step/
// recycle cycle at high fan-in allocates nothing — neither on a bare
// shared link nor with every connection behind its own access link and
// the cycle running through a boundary instant where all 64 are due.
func TestVTimeHotPathZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		size  float64
		links []*netem.Profile
	}{
		{"shared", 2e5, nil},
		{"linkBoundary", 4e5, stormProfiles()}, // 64 x 4e5 B over 6.25 MB/s: several seconds per cycle
	} {
		n := pinVTime(New(DefaultConfig(), netem.Constant("c", 50e6, 100)))
		conns := make([]*Conn, 64)
		for i := range conns {
			if tc.links != nil {
				conns[i] = n.DialVia(n.NewAccessLink(tc.links[i%len(tc.links)]))
			} else {
				conns[i] = n.Dial()
			}
		}
		cycle := func() {
			start := n.Now()
			for _, c := range conns {
				c.Start(tc.size, nil)
			}
			for delivered := 0; delivered < len(conns); {
				done := n.Step(1e9)
				if tc.links != nil && delivered == 0 && n.Now() < math.Floor(start)+1 {
					t.Fatalf("%s: first completion at %v, before all %d links crossed a boundary together", tc.name, n.Now(), len(conns))
				}
				delivered += len(done)
				for _, tr := range done {
					n.Recycle(tr)
				}
			}
		}
		for i := 0; i < 4; i++ { // warm heaps, scratch and the free list
			cycle()
		}
		if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
			t.Errorf("%s: vtime hot path allocated %.1f times per cycle", tc.name, allocs)
		}
	}
}

// BenchmarkFanIn512 measures one drain of 512 concurrent flows on a
// shared link — the regime the virtual-time loop exists for, hand-off in
// and out included.
func BenchmarkFanIn512(b *testing.B) {
	n := New(DefaultConfig(), netem.Constant("edge", 200e6, 1000))
	conns := make([]*Conn, 512)
	for i := range conns {
		conns[i] = n.Dial()
	}
	rng := rand.New(rand.NewSource(1))
	sizes := make([]float64, len(conns))
	for i := range sizes {
		sizes[i] = math.Round(rng.Float64()*2e6) + 1e5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range conns {
			c.Start(sizes[j], nil)
		}
		for delivered := 0; delivered < len(conns); {
			done := n.Step(1e12)
			delivered += len(done)
			for _, tr := range done {
				n.Recycle(tr)
			}
		}
	}
}

// BenchmarkVTimeBoundaryStorm isolates the access-link boundary
// mechanism: 4096 single-flow links over the 1 s cellular traces, nothing
// completing, stepped across 30 simulated seconds — every event after
// the ramp is a boundary instant with every link due. The two cases sit
// on either side of the capFloor gate: under the saturated 40 Mbit/s
// edge the share is below every link's, all flows are uncapped and every
// flip is skipped once the floors settle; under the 4 Gbit/s edge the
// share is about 1 Mbit/s, most links hold a capped flow and take the
// exact path on every flip.
func BenchmarkVTimeBoundaryStorm(b *testing.B) {
	const links, seconds = 4096, 30
	profs := stormProfiles()
	for _, bc := range []struct {
		name    string
		edgeBps float64
	}{{"saturated", 40e6}, {"capped", 4e9}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n := pinVTime(New(DefaultConfig(), netem.Constant("edge", bc.edgeBps, 1000)))
				for j := 0; j < links; j++ {
					n.DialVia(n.NewAccessLink(profs[j%len(profs)])).Start(1e9, nil)
				}
				n.Step(1.5) // past every first byte and the slow-start ramp's first second
				b.StartTimer()
				if done := n.Step(1.5 + seconds); len(done) != 0 {
					b.Fatalf("%d transfers completed in %d s at trace rates", len(done), seconds)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*links*seconds), "ns/link-flip")
		})
	}
}

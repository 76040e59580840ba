package simnet

// Differential and property tests for the virtual-time engine (vtime.go).
//
// The vtime engine is equivalent to the scan engine up to float
// accumulation order: uncapped flows receive the exact equal share s
// instead of the water-filling's sequential remainder divisions, and
// completions land within the scan engine's epsBytes residue. The tests
// here therefore use tolerance-bounded comparisons for times and totals
// — unlike reference_test.go's bit-exact contract for the scan engine —
// plus exact structural requirements: the same transfers complete, in a
// consistent order, with per-engine byte conservation holding exactly.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/netem"
)

// timeTol bounds the completion-time disagreement between the two
// engines: the scan engine declares completion with up to epsBytes
// (1e-6) remaining, so times differ by at most eps/rate plus float
// accumulation dust over a long run.
const timeTol = 1e-5

// engineRun is the observable outcome of one scripted workload on one
// engine: completion records in completion order plus final totals.
type engineRun struct {
	n         *Network
	conns     []*Conn
	transfers []*Transfer
	completed []completionRec
}

type completionRec struct {
	connSeq   int
	size      float64
	completed float64
}

// workloadOp is one scripted event; the script is generated once and
// replayed identically on every engine so the engines see the same
// requests at the same times regardless of tolerance-level divergence.
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
// deadlines so both engines advance in lockstep.
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

// runWorkload replays a script on a fresh Network with the given engine
// and nconn connection slots over nlinks shared access links. A start
// on a busy or pending connection is skipped — the script is identical
// across engines, and with deadline-driven steps the busy state at each
// op is too, because both engines complete the same transfers between
// the same deadlines (checked post-hoc by comparing completion counts).
func runWorkload(t *testing.T, cfg Config, p *netem.Profile, linkP *netem.Profile, engine Engine, ops []workloadOp, nconn, nlinks int) *engineRun {
	t.Helper()
	cfg.Engine = engine
	n := New(cfg, p)
	links := make([]*AccessLink, nlinks)
	for i := range links {
		links[i] = n.NewAccessLink(linkP)
	}
	r := &engineRun{n: n, conns: make([]*Conn, nconn)}
	dial := func(via int) *Conn {
		if via >= 0 {
			return n.DialVia(links[via])
		}
		return n.Dial()
	}
	lastCompleted := 0.0
	step := func(until float64) {
		for {
			done := n.Step(until)
			checkVTimeCapBounds(t, n)
			if len(done) == 0 {
				return
			}
			for _, tr := range done {
				if tr.Completed < lastCompleted {
					t.Fatalf("engine %d: completion time went backwards: %v after %v", engine, tr.Completed, lastCompleted)
				}
				lastCompleted = tr.Completed
				r.completed = append(r.completed, completionRec{tr.Conn.seq, tr.Size, tr.Completed})
			}
		}
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			if r.conns[op.conn] == nil {
				r.conns[op.conn] = dial(op.via)
			}
			if c := r.conns[op.conn]; !c.Busy() {
				r.transfers = append(r.transfers, c.Start(op.size, nil))
			}
		case 1:
			if c := r.conns[op.conn]; c != nil {
				c.Close()
				r.conns[op.conn] = dial(op.via)
			}
		case 2:
			step(op.until)
		}
	}
	return r
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
		if c := tr.Conn.effCap(); tr.vClass != vCapd || tr.vCap != c {
			t.Fatalf("t=%v conn %d: class %d, serving at %v, effective cap %v", n.now, tr.Conn.seq, tr.vClass, tr.vCap, c)
		}
		for _, l := range [...]*AccessLink{tr.Conn.access, tr.upstream} {
			if l != nil && !math.IsInf(l.capFloor, 1) {
				t.Fatalf("t=%v conn %d: capped flow on a link with finite capFloor %v", n.now, tr.Conn.seq, l.capFloor)
			}
		}
	}
}

// checkConservation asserts the exact per-engine byte ledger: delivered
// bytes equal the bytes drained from every transfer ever started.
func checkConservation(t *testing.T, r *engineRun, label string) {
	t.Helper()
	var drained float64
	for _, tr := range r.transfers {
		drained += tr.Size - tr.Remaining()
	}
	if diff := math.Abs(r.n.Delivered() - drained); diff > 1e-3 {
		t.Fatalf("%s: delivered %v != drained %v (diff %g)", label, r.n.Delivered(), drained, diff)
	}
}

// compareRuns checks the two engines completed the same transfers with
// tolerance-bounded times and totals. Completion order may legitimately
// swap for transfers finishing within the tolerance of each other, so
// records are matched per connection (per-conn order is program order:
// one outstanding request per connection).
func compareRuns(t *testing.T, scan, vt *engineRun) {
	t.Helper()
	if len(scan.completed) != len(vt.completed) {
		t.Fatalf("completion count: scan %d != vtime %d", len(scan.completed), len(vt.completed))
	}
	perConn := func(r *engineRun) map[int][]completionRec {
		m := make(map[int][]completionRec)
		for _, c := range r.completed {
			m[c.connSeq] = append(m[c.connSeq], c)
		}
		return m
	}
	sm, vm := perConn(scan), perConn(vt)
	for seq, sc := range sm {
		vc := vm[seq]
		if len(sc) != len(vc) {
			t.Fatalf("conn %d: scan completed %d transfers, vtime %d", seq, len(sc), len(vc))
		}
		for i := range sc {
			if sc[i].size != vc[i].size {
				t.Fatalf("conn %d transfer %d: size %v != %v", seq, i, sc[i].size, vc[i].size)
			}
			tol := timeTol * (1 + math.Abs(sc[i].completed))
			if d := math.Abs(sc[i].completed - vc[i].completed); d > tol {
				t.Fatalf("conn %d transfer %d (size %v): completed %v (scan) vs %v (vtime), diff %g > %g",
					seq, i, sc[i].size, sc[i].completed, vc[i].completed, d, tol)
			}
		}
	}
	dTol := 1e-3 + 1e-9*math.Abs(scan.n.Delivered())
	if d := math.Abs(scan.n.Delivered() - vt.n.Delivered()); d > dTol {
		t.Fatalf("delivered: scan %v vs vtime %v (diff %g)", scan.n.Delivered(), vt.n.Delivered(), d)
	}
}

// FuzzEngineEquivalence is the seeded differential harness: a scripted
// high-fan-in workload (shared access links included) replayed on the
// scan and virtual-time engines must complete the same transfers at
// tolerance-equal times with exact per-engine byte conservation.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0))
	f.Add(int64(2), uint8(48), uint8(0))
	f.Add(int64(3), uint8(64), uint8(3))
	f.Add(int64(4), uint8(90), uint8(5))
	f.Add(int64(5), uint8(12), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nconnB, nlinksB uint8) {
		nconn := 1 + int(nconnB)%96
		nlinks := int(nlinksB) % 6
		rng := rand.New(rand.NewSource(seed))
		p := randomProfile(rng)
		// Conservation and drain need a link that can actually deliver.
		for i, s := range p.Samples {
			if s == 0 {
				p.Samples[i] = 5e5
			}
		}
		linkP := netem.Constant("access", 4e6, 7)
		cfg := randomConfig(rng)
		ops := buildWorkload(rng, nconn, nlinks, 80)

		scan := runWorkload(t, cfg, p, linkP, EngineScan, ops, nconn, nlinks)
		vt := runWorkload(t, cfg, p, linkP, EngineVTime, ops, nconn, nlinks)
		checkConservation(t, scan, "scan")
		checkConservation(t, vt, "vtime")
		compareRuns(t, scan, vt)
	})
}

// TestEngineEquivalenceSeeded replays the fuzz harness over a fixed
// seed sweep so the differential property runs on every plain `go test`
// (and under -race in CI), not only in fuzz mode.
func TestEngineEquivalenceSeeded(t *testing.T) {
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
			vt := runWorkload(t, cfg, p, linkP, EngineVTime, ops, nconn, nlinks)
			checkConservation(t, scan, "scan")
			checkConservation(t, vt, "vtime")
			compareRuns(t, scan, vt)
		})
	}
}

// TestEngineAutoSwitchEquivalence drives a workload that crosses the
// auto-switch thresholds in both directions — a fan-in spike past
// vtimeEnter, a drain below vtimeExit, then a second spike — and
// requires EngineAuto's outcome to match EngineScan's within tolerance
// while confirming the engine actually switched.
func TestEngineAutoSwitchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProfile(rng)
	for i, s := range p.Samples {
		if s == 0 {
			p.Samples[i] = 5e5
		}
	}
	cfg := randomConfig(rng)
	nconn := vtimeEnter + 24
	var ops []workloadOp
	for i := 0; i < nconn; i++ { // spike 1: everyone requests at t=0
		ops = append(ops, workloadOp{kind: 0, conn: i, size: math.Round(rng.Float64()*2e6) + 1e5, via: -1})
	}
	ops = append(ops, workloadOp{kind: 2, until: 1500}) // drain to empty
	for i := 0; i < nconn; i++ {                        // spike 2: idle-reset then re-request
		ops = append(ops, workloadOp{kind: 0, conn: i, size: math.Round(rng.Float64()*2e6) + 1e5, via: -1})
	}
	ops = append(ops, workloadOp{kind: 2, until: 4000})

	scan := runWorkload(t, cfg, p, nil, EngineScan, ops, nconn, 0)
	if scan.n.VTimeActive() {
		t.Fatal("EngineScan ended in vtime mode")
	}

	// Replay on EngineAuto, probing the mode at the spike and the drain.
	cfg.Engine = EngineAuto
	n := New(cfg, p)
	conns := make([]*Conn, nconn)
	for i := range conns {
		conns[i] = n.Dial()
		conns[i].Start(ops[i].size, nil)
	}
	n.Step(0.5) // past every FlowAt: the spike is flowing
	sawVtime := n.VTimeActive()
	var auto []completionRec
	collect := func(until float64) {
		for {
			done := n.Step(until)
			if len(done) == 0 {
				return
			}
			for _, tr := range done {
				auto = append(auto, completionRec{tr.Conn.seq, tr.Size, tr.Completed})
			}
			sawVtime = sawVtime || n.VTimeActive()
		}
	}
	collect(1500)
	if n.VTimeActive() {
		t.Error("EngineAuto still in vtime mode after the fleet drained to zero")
	}
	for i, c := range conns {
		c.Start(ops[nconn+1+i].size, nil)
	}
	collect(4000)
	if !sawVtime {
		t.Fatalf("EngineAuto never entered vtime mode at %d concurrent flows", nconn)
	}
	if len(auto) != len(scan.completed) {
		t.Fatalf("completion count: auto %d != scan %d", len(auto), len(scan.completed))
	}
	vt := &engineRun{n: n, completed: auto}
	compareRuns(t, scan, vt)
}

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
		Engine:                EngineVTime,
	}
	p := netem.Constant("flat", bps, 1000)
	n := New(cfg, p)
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
	p := randomProfile(rng)
	for i, s := range p.Samples {
		if s == 0 {
			p.Samples[i] = 5e5
		}
	}
	linkP := netem.Constant("access", 3e6, 5)
	cfg := randomConfig(rng)
	cfg.Engine = EngineVTime
	ops := buildWorkload(rng, 40, 3, 60)

	probed := New(cfg, p)
	silent := New(cfg, p)
	mk := func(n *Network) (conns []*Conn, links []*AccessLink) {
		links = []*AccessLink{n.NewAccessLink(linkP), n.NewAccessLink(linkP), n.NewAccessLink(linkP)}
		conns = make([]*Conn, 40)
		return
	}
	pc, pl := mk(probed)
	sc, sl := mk(silent)

	var pTrans, sTrans []*Transfer
	lastRem := map[*Transfer]float64{}
	probe := func() {
		var drained float64
		for _, tr := range pTrans {
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
		if d := math.Abs(probed.Delivered() - drained); d > 1e-3 {
			t.Fatalf("Delivered %v != per-transfer drained %v (diff %g)", probed.Delivered(), drained, d)
		}
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			if pc[op.conn] == nil {
				if op.via >= 0 {
					pc[op.conn], sc[op.conn] = probed.DialVia(pl[op.via]), silent.DialVia(sl[op.via])
				} else {
					pc[op.conn], sc[op.conn] = probed.Dial(), silent.Dial()
				}
			}
			if !pc[op.conn].Busy() {
				pTrans = append(pTrans, pc[op.conn].Start(op.size, nil))
				sTrans = append(sTrans, sc[op.conn].Start(op.size, nil))
			}
		case 1:
			if pc[op.conn] != nil {
				pc[op.conn].Close()
				sc[op.conn].Close()
				pc[op.conn], sc[op.conn] = probed.Dial(), silent.Dial()
			}
		case 2:
			for {
				pd := probed.Step(op.until)
				sd := silent.Step(op.until)
				probe() // reads between every step on the probed twin only
				if len(pd) != len(sd) {
					t.Fatalf("probed run diverged: %d vs %d completions", len(pd), len(sd))
				}
				if len(pd) == 0 {
					break
				}
			}
		}
	}
	// Purity: every observable of the probed run equals the silent twin's.
	if probed.Delivered() != silent.Delivered() {
		t.Fatalf("reads perturbed Delivered: %v vs %v", probed.Delivered(), silent.Delivered())
	}
	for i := range pTrans {
		if pTrans[i].Remaining() != sTrans[i].Remaining() || pTrans[i].Completed != sTrans[i].Completed {
			t.Fatalf("reads perturbed transfer %d: remaining %v/%v completed %v/%v",
				i, pTrans[i].Remaining(), sTrans[i].Remaining(), pTrans[i].Completed, sTrans[i].Completed)
		}
	}
}

// stormProfiles returns the 14 cellular traces re-timed to the given
// sample durations (cycled across the traces): all 1 s reproduces the
// fleet's aligned boundaries, anything else makes neighbouring links
// flip at different instants.
func stormProfiles(durs ...float64) []*netem.Profile {
	ps := netem.CellularSet()
	for i, p := range ps {
		ps[i] = &netem.Profile{Name: p.Name, SampleDur: durs[i%len(durs)], Samples: p.Samples}
	}
	return ps
}

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
// links go idle and re-activate mid-second and both engines see
// identical request times. closeConn >= 0 closes that connection,
// mid-transfer, at closeAt. The returned count is the number of Step
// returns that found some link carrying a capped and an uncapped
// virtual-time flow together.
func runLinkStorm(t *testing.T, engine Engine, profs []*netem.Profile, sh stormShape, closeConn int, closeAt float64) (*engineRun, int) {
	t.Helper()
	nconn := sh.nconn
	cfg := DefaultConfig()
	cfg.Engine = engine
	cfg.ConnCapSequence = sh.connCaps
	cfg.RTT = sh.rtt
	n := New(cfg, netem.Constant("edge", sh.edgeBps, 1000))
	r := &engineRun{n: n, conns: make([]*Conn, nconn)}
	rng := rand.New(rand.NewSource(17))
	left := make([]int, nconn)
	var l *AccessLink
	for i := range r.conns {
		if i%sh.perLink == 0 {
			l = n.NewAccessLink(profs[i/sh.perLink%len(profs)])
		}
		r.conns[i] = n.DialVia(l)
		left[i] = 2
	}
	mixedSteps := 0
	want := 2 * nconn
	for deadline := 0.0; len(r.completed) < want; deadline += 0.25 {
		if deadline > 2000 {
			t.Fatalf("engine %d: %d of %d transfers completed by t=%v", engine, len(r.completed), want, deadline)
		}
		if closeConn >= 0 && deadline >= closeAt {
			if !r.conns[closeConn].Busy() {
				t.Fatalf("conn %d has nothing in flight to abandon at t=%v", closeConn, deadline)
			}
			r.conns[closeConn].Close()
			want -= 1 + left[closeConn]
			left[closeConn], closeConn = 0, -1
		}
		for i, c := range r.conns {
			if left[i] > 0 && !c.Busy() && deadline >= 0.25*float64(i%sh.perLink) {
				left[i]--
				r.transfers = append(r.transfers, c.Start(math.Round(rng.Float64()*4e5)+5e4, nil))
			}
		}
		for {
			done := n.Step(deadline + 0.25)
			checkVTimeCapBounds(t, n)
			for _, l := range n.links {
				var seen [vCapd + 1]bool
				for _, m := range l.members {
					seen[m.vClass] = true
				}
				if seen[vUnc] && seen[vCapd] {
					mixedSteps++
					break
				}
			}
			if len(done) == 0 {
				break
			}
			for _, tr := range done {
				r.completed = append(r.completed, completionRec{tr.Conn.seq, tr.Size, tr.Completed})
			}
		}
	}
	return r, mixedSteps
}

// checkLinkStorm runs one storm on the scan and virtual-time engines and
// requires compareRuns' equivalence plus the order and per-flow
// properties: completions arrive in the same order (two may swap only
// when the scan engine finished them within the time tolerance of each
// other), and every completed transfer drained exactly to zero.
func checkLinkStorm(t *testing.T, profs []*netem.Profile, sh stormShape, closeConn int, closeAt float64) (mixedSteps int) {
	t.Helper()
	scan, _ := runLinkStorm(t, EngineScan, profs, sh, closeConn, closeAt)
	vt, mixedSteps := runLinkStorm(t, EngineVTime, profs, sh, closeConn, closeAt)
	checkConservation(t, scan, "scan")
	checkConservation(t, vt, "vtime")
	compareRuns(t, scan, vt)
	type flowKey struct {
		connSeq int
		size    float64
	}
	scanAt := make(map[flowKey]float64, len(scan.completed))
	for _, sc := range scan.completed {
		scanAt[flowKey{sc.connSeq, sc.size}] = sc.completed
	}
	for i, sc := range scan.completed {
		vc := vt.completed[i]
		if d := math.Abs(scanAt[flowKey{vc.connSeq, vc.size}] - sc.completed); d > timeTol*(1+sc.completed) {
			t.Fatalf("completion %d: scan finished conn %d, vtime conn %d, which scan finished %g s apart", i, sc.connSeq, vc.connSeq, d)
		}
	}
	for i, tr := range vt.transfers {
		if tr.Done && tr.Remaining() != 0 {
			t.Fatalf("vtime transfer %d: %g bytes left after completion", i, tr.Remaining())
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
	checkLinkStorm(t, stormProfiles(1), saturated256, -1, 0)
}

// TestVTimeMixedSampleDur is the same storm with link sample durations
// of 0.7, 1 and 1.3 s: boundaries do not align, so almost every instant
// has only a few links due and the rest must be left alone.
func TestVTimeMixedSampleDur(t *testing.T) {
	checkLinkStorm(t, stormProfiles(0.7, 1, 1.3), saturated256, -1, 0)
}

// TestVTimeSlowStartStorm stretches the round trip to half a second, so
// a window takes nine doublings over 4.5 s to reach steady state and is,
// for several profile boundaries, the binding term of an uncapped flow's
// cap: doublings raise caps whose bounds must stay where the links'
// floors vouch for them.
func TestVTimeSlowStartStorm(t *testing.T) {
	sh := saturated256
	sh.rtt = 0.5
	checkLinkStorm(t, stormProfiles(1), sh, -1, 0)
}

// TestVTimeSharedLinkStorm puts three connections behind each of 128
// links, with static per-connection caps of 2, 8 and 1 Mbit/s, under an
// edge whose share sits inside the spread of those caps and the link
// shares: links carry capped and uncapped members together and cross
// profile boundaries while they do — the flips the capFloor rule must
// never skip.
func TestVTimeSharedLinkStorm(t *testing.T) {
	sh := stormShape{nconn: 384, perLink: 3, edgeBps: 300e6, connCaps: []float64{2e6, 8e6, 1e6}}
	if mixed := checkLinkStorm(t, stormProfiles(1), sh, -1, 0); mixed < 100 {
		t.Fatalf("only %d steps ended with a capped and an uncapped flow sharing a link; the storm no longer exercises mixed links", mixed)
	}
}

// TestVTimeStaleCapBound walks one flow's cap bound through its whole
// life cycle against the scan engine. 64 single-flow links share a
// 32 Mbit/s edge, so the share starts at 62.5 kB/s, below every link's;
// link 0 steps 1 -> 20 -> 0.5 Mbit/s in 4 s samples while the others
// hold 16 Mbit/s. The rise to 20 Mbit/s leaves flow 0's bound at the
// 1 Mbit/s share; 60 small flows then complete and lift the share to
// 1 MB/s, past that stale bound but below the true 2.5 MB/s cap — the
// flow must stay uncapped, its bound tightened to the exact cap. The
// drop to 0.5 Mbit/s must then cap it at exactly the new share.
func TestVTimeStaleCapBound(t *testing.T) {
	const nlinks = 64
	linkP := &netem.Profile{Name: "step", SampleDur: 4, Samples: []float64{1e6, 20e6, 0.5e6}}
	run := func(engine Engine) (*engineRun, [3]float64) {
		cfg := DefaultConfig()
		cfg.InitialWindowSegments = 2e4 // no slow-start cap: link shares are the only caps
		cfg.Engine = engine
		n := New(cfg, netem.Constant("edge", 32e6, 1000))
		r := &engineRun{n: n}
		for i := 0; i < nlinks; i++ {
			p, size := netem.Constant("flat", 16e6, 1000), 3e5+2e3*float64(i)
			if i == 0 {
				p = linkP
			}
			if i < 4 {
				size = 1e8 // outlives the script: the share settles at edge/4
			}
			r.transfers = append(r.transfers, n.DialVia(n.NewAccessLink(p)).Start(size, nil))
		}
		var rates [3]float64
		for i, until := range []float64{3.9, 7.9, 8.5} {
			for {
				done := n.Step(until)
				checkVTimeCapBounds(t, n)
				if len(done) == 0 {
					break
				}
				for _, tr := range done {
					if tr.Completed < 4 || tr.Completed > 7.9 {
						t.Fatalf("engine %d: conn %d completed at %v, outside link 0's 20 Mbit/s sample", engine, tr.Conn.seq, tr.Completed)
					}
					r.completed = append(r.completed, completionRec{tr.Conn.seq, tr.Size, tr.Completed})
				}
			}
			tr := r.transfers[0]
			rates[i] = tr.Rate()
			if i == 1 && n.vmode && (tr.vClass != vUnc || n.v.uncCap.key[tr.hCap] != 20e6/8) {
				t.Errorf("at the raised share: class %d, bound %v, want uncapped with the bound at the exact cap %v", tr.vClass, n.v.uncCap.key[tr.hCap], 20e6/8)
			}
		}
		return r, rates
	}
	scan, scanRates := run(EngineScan)
	vt, rates := run(EngineVTime)
	if len(vt.completed) != nlinks-4 {
		t.Fatalf("%d of %d small flows completed", len(vt.completed), nlinks-4)
	}
	checkConservation(t, scan, "scan")
	checkConservation(t, vt, "vtime")
	compareRuns(t, scan, vt)
	want := [3]float64{32e6 / 8 / nlinks, 32e6 / 8 / 4, 0.5e6 / 8}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-9*want[i] || math.Abs(scanRates[i]-want[i]) > 1e-9*want[i] {
			t.Errorf("probe %d: flow 0 served at %v (vtime) / %v (scan), want %v", i, rates[i], scanRates[i], want[i])
		}
	}
	if tr := vt.transfers[0]; tr.vClass != vCapd || rates[2] != want[2] {
		t.Errorf("after the drop: class %d at %v B/s, want capped at exactly %v", tr.vClass, rates[2], want[2])
	}
}

// TestVTimeStaleLinkMinimum closes, mid-second, the one connection whose
// link holds the earliest next boundary (a 0.4 s sample clock among 1 s
// ones). Whatever the engine remembers about that link afterwards, the
// surviving links' own next boundary must still be honoured.
func TestVTimeStaleLinkMinimum(t *testing.T) {
	profs := stormProfiles(1)[:8]
	profs[0] = &netem.Profile{Name: "fast-clock", SampleDur: 0.4, Samples: profs[0].Samples}
	checkLinkStorm(t, profs, stormShape{nconn: 8, perLink: 1, edgeBps: 40e6}, 0, 0.5)
}

// TestVTimeHotPathZeroAlloc extends the PR 3 zero-allocation promise to
// the virtual-time engine: once the heaps are warmed, a start/step/
// recycle cycle at high fan-in allocates nothing — neither on a bare
// shared link nor with every connection behind its own access link and
// the cycle running through a boundary instant where all 64 are due.
func TestVTimeHotPathZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = EngineVTime
	for _, tc := range []struct {
		name  string
		size  float64
		links []*netem.Profile
	}{
		{"shared", 2e5, nil},
		{"linkBoundary", 4e5, stormProfiles(1)}, // 64 x 4e5 B over 6.25 MB/s: several seconds per cycle
	} {
		n := New(cfg, netem.Constant("c", 50e6, 100))
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
// shared link per engine — the regime the virtual-time engine exists
// for (O(log F) vs O(F) per event).
func BenchmarkFanIn512(b *testing.B) {
	for _, eng := range []struct {
		name string
		e    Engine
	}{{"scan", EngineScan}, {"vtime", EngineVTime}} {
		b.Run(eng.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Engine = eng.e
			n := New(cfg, netem.Constant("edge", 200e6, 1000))
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
		})
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
	profs := stormProfiles(1)
	cfg := DefaultConfig()
	cfg.Engine = EngineVTime
	for _, bc := range []struct {
		name    string
		edgeBps float64
	}{{"saturated", 40e6}, {"capped", 4e9}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n := New(cfg, netem.Constant("edge", bc.edgeBps, 1000))
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

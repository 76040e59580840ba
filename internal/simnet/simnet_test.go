package simnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netem"
)

// cfgNoRamp returns a config where slow start is effectively instant, so
// timing is analytically checkable.
func cfgNoRamp() Config {
	return Config{RTT: 0.1, MSS: 1460, InitialWindowSegments: 1e9, HandshakeRTTs: 1}
}

func TestSingleTransferTiming(t *testing.T) {
	// 8 Mbit/s link, no slow start: 1 MB transfer should take
	// handshake(0.1) + request(0.1) + 1e6*8/8e6 = 1.2 s.
	n := New(cfgNoRamp(), netem.Constant("c", 8e6, 100))
	c := n.Dial()
	tr := c.Start(1e6, nil)
	done := n.Step(100)
	if len(done) != 1 || done[0] != tr {
		t.Fatalf("expected completion, got %v", done)
	}
	if math.Abs(tr.Completed-1.2) > 1e-6 {
		t.Fatalf("completed at %v, want 1.2", tr.Completed)
	}
	if math.Abs(n.Delivered()-1e6) > 1e-3 {
		t.Fatalf("delivered %v", n.Delivered())
	}
}

func TestPersistentSkipsHandshake(t *testing.T) {
	cfg := cfgNoRamp()
	cfg.SlowStartAfterIdle = false
	n := New(cfg, netem.Constant("c", 8e6, 100))
	c := n.Dial()
	tr1 := c.Start(1e6, nil)
	n.Step(100)
	tr2 := c.Start(1e6, nil)
	n.Step(100)
	// Second transfer: request RTT only (0.1) + 1 s payload.
	if got := tr2.Completed - tr1.Completed; math.Abs(got-1.1) > 1e-6 {
		t.Fatalf("second transfer took %v, want 1.1", got)
	}
}

func TestFairSharing(t *testing.T) {
	n := New(cfgNoRamp(), netem.Constant("c", 8e6, 100))
	a := n.Dial().Start(1e6, "a")
	b := n.Dial().Start(1e6, "b")
	var done []*Transfer
	for len(done) < 2 {
		done = append(done, n.Step(100)...) // never Recycled, so the transfers stay valid
	}
	// Equal sizes, equal shares: both finish together at
	// 0.2 (latency) + 2e6 bytes / 1e6 B/s = 2.2 s.
	if math.Abs(a.Completed-2.2) > 1e-6 || math.Abs(b.Completed-2.2) > 1e-6 {
		t.Fatalf("completions %v / %v, want 2.2", a.Completed, b.Completed)
	}
}

func TestUnequalSizesRedistribution(t *testing.T) {
	n := New(cfgNoRamp(), netem.Constant("c", 8e6, 100))
	small := n.Dial().Start(0.25e6, "s")
	big := n.Dial().Start(1.75e6, "b")
	for i := 0; i < 10; i++ {
		if n.Step(100); big.Done {
			break
		}
	}
	// Small: 0.2 + 0.25e6/0.5e6 = 0.7 s. Big: shares until 0.7
	// (0.25e6 done), then full rate: 0.7 + 1.5e6/1e6 = 2.2 s.
	if math.Abs(small.Completed-0.7) > 1e-6 {
		t.Fatalf("small at %v, want 0.7", small.Completed)
	}
	if math.Abs(big.Completed-2.2) > 1e-6 {
		t.Fatalf("big at %v, want 2.2", big.Completed)
	}
}

func TestSlowStartRamp(t *testing.T) {
	// IW 10 × 1460 B over 100 ms RTT = 146 kB/s initial cap, doubling
	// each RTT. A fat link means the cap binds:
	// bytes by k RTTs = 0.146e6 * (2^k - 1) * 0.1... piecewise constant:
	// windows deliver 14.6kB, 29.2kB, 58.4kB, ... per RTT.
	cfg := Config{RTT: 0.1, MSS: 1460, InitialWindowSegments: 10, HandshakeRTTs: 1}
	n := New(cfg, netem.Constant("c", 1e9, 100))
	tr := n.Dial().Start(14600*(1+2+4), nil) // exactly 3 doubling windows
	n.Step(100)
	// Flow starts at 0.2; three full RTT windows: 0.2 + 0.3 = 0.5.
	if math.Abs(tr.Completed-0.5) > 1e-6 {
		t.Fatalf("slow-start completion %v, want 0.5", tr.Completed)
	}
}

func TestSlowStartMakesNonPersistentSlower(t *testing.T) {
	p := netem.Constant("c", 20e6, 1000)
	run := func(persistent bool) float64 {
		n := New(DefaultConfig(), p)
		var c *Conn
		last := 0.0
		for i := 0; i < 20; i++ {
			if c == nil || !persistent {
				c = n.Dial()
			}
			tr := c.Start(500e3, nil)
			n.Step(1000)
			last = tr.Completed
			if !persistent {
				c.Close()
			}
		}
		return last
	}
	persistentTime := run(true)
	freshTime := run(false)
	if freshTime <= persistentTime {
		t.Fatalf("non-persistent (%v) should be slower than persistent (%v)", freshTime, persistentTime)
	}
}

func TestSlowStartAfterIdle(t *testing.T) {
	cfg := DefaultConfig() // SlowStartAfterIdle on, IdleResetAfter 1s
	p := netem.Constant("c", 20e6, 1000)
	n := New(cfg, p)
	c := n.Dial()
	tr1 := c.Start(500e3, nil)
	n.Step(1000)
	warm := c.Start(500e3, nil) // immediate: window still open
	n.Step(1000)
	warmTook := warm.Completed - warm.Started
	// Now idle past the reset threshold.
	n.Step(warm.Completed + 5)
	cold := c.Start(500e3, nil)
	n.Step(1000)
	coldTook := cold.Completed - cold.Started
	if coldTook <= warmTook {
		t.Fatalf("post-idle transfer (%v) should be slower than warm (%v)", coldTook, warmTook)
	}
	_ = tr1
}

func TestProfileVariation(t *testing.T) {
	// 1 Mbit/s for 10 s then 8 Mbit/s: a transfer spanning the boundary.
	p := netem.Step("s", 1e6, 8e6, 10, 100)
	n := New(cfgNoRamp(), p)
	tr := n.Dial().Start(2e6, nil) // flows from 0.2
	n.Step(100)
	// By t=10: (10-0.2)s × 0.125e6 = 1.225e6 bytes. Remaining 0.775e6 at
	// 1e6 B/s = 0.775 s → 10.775.
	if math.Abs(tr.Completed-10.775) > 1e-6 {
		t.Fatalf("completed %v, want 10.775", tr.Completed)
	}
}

func TestConservation(t *testing.T) {
	// Total delivered bytes can never exceed the link integral.
	p := netem.Cellular(2)
	n := New(DefaultConfig(), p)
	rng := rand.New(rand.NewSource(7))
	conns := []*Conn{n.Dial(), n.Dial(), n.Dial()}
	deadline := 120.0
	for n.Now() < deadline {
		for _, c := range conns {
			if !c.Busy() {
				c.Start(rng.Float64()*2e6+1e3, nil)
			}
		}
		n.Step(math.Min(n.Now()+5, deadline))
	}
	delivered := n.Delivered() * 8
	budget := p.Integral(0, n.Now())
	if delivered > budget+1 {
		t.Fatalf("delivered %v bits > link budget %v", delivered, budget)
	}
	if delivered < 0.5*budget {
		t.Fatalf("delivered only %.1f%% of budget with saturating flows", 100*delivered/budget)
	}
}

func TestStepDeadline(t *testing.T) {
	n := New(cfgNoRamp(), netem.Constant("c", 8e6, 100))
	tr := n.Dial().Start(1e6, nil)
	done := n.Step(0.5) // before completion
	if len(done) != 0 || n.Now() != 0.5 {
		t.Fatalf("Step stopped at %v with %d completions", n.Now(), len(done))
	}
	if tr.Remaining() >= 1e6 || tr.Remaining() <= 0 {
		t.Fatalf("remaining %v", tr.Remaining())
	}
	done = n.Step(10)
	if len(done) != 1 {
		t.Fatal("expected completion")
	}
}

func TestStartPanics(t *testing.T) {
	n := New(cfgNoRamp(), netem.Constant("c", 8e6, 100))
	c := n.Dial()
	c.Start(100, nil)
	assertPanics(t, func() { c.Start(100, nil) }, "busy conn")
	c2 := n.Dial()
	c2.Close()
	assertPanics(t, func() { c2.Start(100, nil) }, "closed conn")
	assertPanics(t, func() { n.Step(-1) }, "backwards step")
}

func assertPanics(t *testing.T, f func(), name string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestThroughputAccessor(t *testing.T) {
	n := New(cfgNoRamp(), netem.Constant("c", 8e6, 100))
	tr := n.Dial().Start(1e6, nil)
	n.Step(100)
	// 8 Mbit over 1.2 s ≈ 6.67 Mbit/s observed.
	if got := tr.Throughput(); math.Abs(got-8e6/1.2) > 1 {
		t.Fatalf("throughput %v", got)
	}
}

// TestQuickConservationAndCompletion property-tests the fluid engine:
// random profiles and transfer mixes must conserve bytes and complete
// every transfer that fits in the budget.
func TestQuickConservationAndCompletion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		samples := make([]float64, 30)
		for i := range samples {
			samples[i] = rng.Float64()*10e6 + 0.1e6
		}
		p := &netem.Profile{Name: "q", Samples: samples}
		n := New(DefaultConfig(), p)
		nConns := rng.Intn(4) + 1
		var transfers []*Transfer
		for i := 0; i < nConns; i++ {
			c := n.Dial()
			transfers = append(transfers, c.Start(rng.Float64()*0.4e6+1e3, i))
		}
		for done := 0; done < len(transfers); {
			out := n.Step(n.Now() + 10)
			done += len(out)
			if n.Now() > 1e4 {
				return false // livelock
			}
		}
		total := 0.0
		for _, tr := range transfers {
			if !tr.Done || tr.Completed < tr.FlowAt {
				return false
			}
			total += tr.Size
		}
		if math.Abs(total-n.Delivered()) > 1 {
			return false
		}
		return n.Delivered()*8 <= p.Integral(0, n.Now())+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestConnCapSequence(t *testing.T) {
	cfg := cfgNoRamp()
	cfg.ConnCapSequence = []float64{4e6, 1e6} // bits/s, cycling
	n := New(cfg, netem.Constant("c", 100e6, 100))
	fast := n.Dial().Start(1e6, nil) // capped at 0.5 MB/s
	slow := n.Dial().Start(1e6, nil) // capped at 0.125 MB/s
	for !slow.Done {
		n.Step(100)
	}
	// fast: 0.2 latency + 1e6/0.5e6 = 2.2 s; slow: 0.2 + 8 = 8.2 s.
	if math.Abs(fast.Completed-2.2) > 1e-6 {
		t.Fatalf("fast completed %v, want 2.2", fast.Completed)
	}
	if math.Abs(slow.Completed-8.2) > 1e-6 {
		t.Fatalf("slow completed %v, want 8.2", slow.Completed)
	}
	// The third dial cycles back to the 4 Mbit/s cap.
	third := n.Dial().Start(1e6, nil)
	n.Step(100)
	if got := third.Completed - third.Started; math.Abs(got-2.2) > 1e-6 {
		t.Fatalf("third conn took %v, want 2.2 (cycled cap)", got)
	}
}

// TestEngineShimContract pins the three shapes bench/probes.go asserts of
// the Engine/CellActive/VTimeActive shims while the flows are live, so a
// cleanup of the shims cannot fail the benchmark's probe.simnet op
// silently. ROADMAP item 1 (f) re-keys those probes on flow shape; the PR
// that does deletes the shims and this test together.
func TestEngineShimContract(t *testing.T) {
	cellCfg := DefaultConfig()
	cellCfg.Engine = EngineCell
	for _, tc := range []struct {
		name        string
		cfg         Config
		flows       int
		cell, vtime bool
	}{
		{"8 direct flows, DefaultConfig", DefaultConfig(), 8, false, false},
		{"24 via-access flows, EngineCell", cellCfg, 24, true, false},
		{"512 via-access flows, EngineCell", cellCfg, 512, false, true},
	} {
		n := New(tc.cfg, netem.Constant("edge", 40e6, 1000))
		for i := 0; i < tc.flows; i++ {
			var l *AccessLink
			if tc.cfg.Engine == EngineCell {
				l = n.NewAccessLink(netem.Cellular(1 + i%netem.CellularCount))
			}
			n.DialVia(l).Start(1e6, nil)
		}
		if done := n.Step(1e12); len(done) == 0 {
			t.Fatalf("%s: nothing completed", tc.name)
		}
		if n.CellActive() != tc.cell || n.VTimeActive() != tc.vtime {
			t.Errorf("%s: CellActive %v, VTimeActive %v after the first completion; want %v, %v",
				tc.name, n.CellActive(), n.VTimeActive(), tc.cell, tc.vtime)
		}
	}
}

// Remaining returns the bytes not yet delivered, as of the last engine
// event: a flowing transfer's progress since its anchor is folded in on
// demand.
func (t *Transfer) Remaining() float64 {
	r := t.remaining
	switch {
	case t.vClass == vUnc:
		r -= t.Conn.net.v.vNow - t.aT
	case t.vClass == vCapd || t.pos >= 0:
		r -= t.rate * (t.Conn.net.now - t.aT)
	}
	if r > 0 {
		return r
	}
	return 0
}

// Rate returns the most recently allocated delivery rate in bytes/s. A
// virtual-time uncapped flow's rate is the shared equal-share slope.
func (t *Transfer) Rate() float64 {
	if t.vClass == vUnc {
		return t.Conn.net.v.slope
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

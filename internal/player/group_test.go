package player

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/adaptation"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/simnet"
)

// TestGroupSharesBandwidthFairly runs two identical players over one
// link: each should see roughly half the throughput a solo player gets,
// and their QoE should be near-identical to each other.
func TestGroupSharesBandwidthFairly(t *testing.T) {
	org := buildOrigin(t, 4, false, media.VBR)
	// An aggressive, actual-bitrate-aware player whose solo demand
	// exceeds half the link, so two peers genuinely contend (the
	// conservative declared-bitrate players leave so much headroom that
	// two of them coexist without interacting).
	aggressive := func() Config {
		cfg := baseConfig()
		cfg.Algorithm = adaptation.Throughput{Factor: 0.9, UseActual: true}
		cfg.ExposeSegmentSizes = true
		return cfg
	}
	p := netem.Constant("c", 1.6e6, 600)

	solo := runSession(t, aggressive(), org, p)
	soloBytes := solo.Summary.TotalBytes

	net := simnet.New(simnet.DefaultConfig(), p)
	g := NewGroup()
	var pair []*Session
	for i := 0; i < 2; i++ {
		cfg := aggressive()
		s, err := NewSession(cfg, org, net)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(s); err != nil {
			t.Fatal(err)
		}
		pair = append(pair, s)
	}
	results := g.Run()
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	a, b := results[0], results[1]
	for i, r := range results {
		checkInvariants(t, r)
		if r.StartupDelay < 0 {
			t.Fatalf("session %d never started", i)
		}
	}
	// Identical configs over a fair link: near-identical outcomes.
	if rel := math.Abs(a.Summary.TotalBytes-b.Summary.TotalBytes) / a.Summary.TotalBytes; rel > 0.1 {
		t.Errorf("peers diverged: %.1f vs %.1f MB", a.Summary.TotalBytes/1e6, b.Summary.TotalBytes/1e6)
	}
	// Each peer gets roughly half the solo session's bytes (both are
	// quality-capped, so allow a broad band).
	if a.Summary.TotalBytes > 0.85*soloBytes {
		t.Errorf("peer used %.1f MB, solo used %.1f MB — no contention visible", a.Summary.TotalBytes/1e6, soloBytes/1e6)
	}
}

// TestGroupMixedDurations: a short session leaves the link early and the
// survivor speeds up.
func TestGroupMixedDurations(t *testing.T) {
	org := buildOrigin(t, 4, false, media.VBR)
	net := simnet.New(simnet.DefaultConfig(), netem.Constant("c", 4e6, 900))
	g := NewGroup()
	long := baseConfig()
	long.SessionDuration = 600
	short := baseConfig()
	short.SessionDuration = 120
	ls, err := NewSession(long, org, net)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewSession(short, org, net)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Add(ls); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(ss); err != nil {
		t.Fatal(err)
	}
	res := g.Run()
	if res[1].EndTime > 120+1e-6 {
		t.Fatalf("short session ended at %.1f", res[1].EndTime)
	}
	if res[0].EndTime < 600-1e-6 {
		t.Fatalf("long session ended at %.1f", res[0].EndTime)
	}
	// The survivor's second-half downloads are faster than its first-half
	// ones (contention gone). Compare mean segment fetch times.
	var early, late []float64
	for _, d := range res[0].Downloads {
		if d.End == 0 {
			continue
		}
		if d.End < 120 {
			early = append(early, d.End-d.Start)
		} else if d.End > 200 {
			late = append(late, d.End-d.Start)
		}
	}
	if len(early) == 0 || len(late) == 0 {
		t.Fatal("not enough downloads to compare")
	}
	mean := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	// Per-byte fetch pace must improve; compare normalised by bytes.
	var earlyPace, latePace float64
	var eb, lb float64
	for _, d := range res[0].Downloads {
		if d.End == 0 {
			continue
		}
		if d.End < 120 {
			earlyPace += d.End - d.Start
			eb += d.Bytes
		} else if d.End > 200 {
			latePace += d.End - d.Start
			lb += d.Bytes
		}
	}
	if latePace/lb >= earlyPace/eb {
		t.Errorf("no speedup after peer left: %.3g vs %.3g s/byte (means %.2f/%.2f s)",
			latePace/lb, earlyPace/eb, mean(early), mean(late))
	}
}

// TestGroupRejectsForeignNetwork: sessions on different networks cannot
// share a group.
func TestGroupRejectsForeignNetwork(t *testing.T) {
	org := buildOrigin(t, 4, false, media.VBR)
	n1 := simnet.New(simnet.DefaultConfig(), netem.Constant("a", 1e6, 10))
	n2 := simnet.New(simnet.DefaultConfig(), netem.Constant("b", 1e6, 10))
	s1, err := NewSession(baseConfig(), org, n1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSession(baseConfig(), org, n2)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroup()
	if err := g.Add(s1); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(s2); err == nil {
		t.Fatal("group accepted a session on a different network")
	}
}

// TestSoloEqualsGroupOfOne: Session.Run (which wraps a Group) must be
// identical to the pre-refactor single loop semantics — pin a few
// sensitive outputs.
func TestSoloEqualsGroupOfOne(t *testing.T) {
	org := buildOrigin(t, 4, false, media.VBR)
	p := netem.Cellular(3)
	a := runSession(t, baseConfig(), org, p)

	net := simnet.New(simnet.DefaultConfig(), p)
	s, err := NewSession(baseConfig(), org, net)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroup()
	if err := g.Add(s); err != nil {
		t.Fatal(err)
	}
	b := g.Run()[0]
	if a.Summary.TotalBytes != b.Summary.TotalBytes || a.StartupDelay != b.StartupDelay ||
		a.Summary.StallSec != b.Summary.StallSec || len(a.Downloads) != len(b.Downloads) {
		t.Fatalf("solo Run diverges from explicit group: %+v vs %+v", a, b)
	}
}

// TestLentSessionsMatchEager: members lent their sessions as they arrive —
// each built in a given-back session's memory, persistent, non-persistent
// and split alike, over one shared access profile — emit byte-identical
// Summaries to the same sessions added up front, lean, and the group
// needs only as many sessions as play at once.
func TestLentSessionsMatchEager(t *testing.T) {
	org := buildOrigin(t, 4, true, media.VBR)
	edge := netem.Constant("edge", 6e6, 900)
	access := netem.Constant("access", 3e6, 900)
	type member struct {
		start, dur float64
		persistent bool
		sched      SchedulerKind
	}
	members := []member{
		{0, 60, true, SchedulerSingle}, {5, 40, false, SchedulerParallel},
		{70, 50, true, SchedulerSplit}, {72, 30, false, SchedulerSingle},
		{130, 40, true, SchedulerParallel}, {131, 20, false, SchedulerSplit},
	}
	run := func(lent bool) (sums []string, built int) {
		net := simnet.New(simnet.DefaultConfig(), edge)
		build := func(s *Session, m member) *Session {
			cfg := baseConfig()
			cfg.SessionDuration, cfg.Persistent, cfg.Scheduler = m.dur, m.persistent, m.sched
			if m.sched != SchedulerSingle {
				cfg.MaxConnections = 2
			}
			s, err := ReuseSession(s, cfg, org, net)
			if err != nil {
				t.Fatal(err)
			}
			s.SetStartAt(m.start)
			s.SetAccessLink(net.NewAccessLink(access))
			return s
		}
		g := NewGroup()
		sums = make([]string, len(members))
		g.SetObserver(func(s *Session, _ *Result) { sums[s.Member()] = fmt.Sprintf("%+v", *s.Summary()) })
		var pool []*Session
		g.SetLender(net, func(id int) *Session {
			var s *Session
			if k := len(pool); k > 0 {
				s, pool = pool[k-1], pool[:k-1]
			} else {
				built++
			}
			return build(s, members[id])
		}, func(s *Session) { pool = append(pool, s) })
		for _, m := range members {
			if lent {
				g.AddLent(m.start)
				continue
			}
			s := build(nil, m)
			s.SetLean()
			if err := g.Add(s); err != nil {
				t.Fatal(err)
			}
		}
		g.Run()
		return sums, built
	}
	eager, _ := run(false)
	lent, built := run(true)
	for i := range members {
		if lent[i] != eager[i] {
			t.Errorf("member %d: lent %s\n eager %s", i, lent[i], eager[i])
		}
	}
	if built != 2 {
		t.Errorf("the lender built %d sessions for members at most two of whom play at once", built)
	}
}

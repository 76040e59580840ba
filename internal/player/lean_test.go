package player

import (
	"math"
	"testing"

	"repro/internal/manifest"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/simnet"
)

// runPair runs the same config twice over identical fresh networks:
// once full-fidelity, once lean, and returns (full result, full
// summary, lean summary).
func runPair(t *testing.T, cfg Config, trace int) (*Result, *Summary, *Summary) {
	t.Helper()
	org := buildOrigin(t, 4, true, media.VBR)
	full, err := NewSession(cfg, org, simnet.New(simnet.DefaultConfig(), netem.Cellular(trace)))
	if err != nil {
		t.Fatal(err)
	}
	res := full.Run()
	lean, err := NewSession(cfg, org, simnet.New(simnet.DefaultConfig(), netem.Cellular(trace)))
	if err != nil {
		t.Fatal(err)
	}
	lean.SetLean()
	if out := lean.Run(); out != nil {
		t.Fatal("lean session returned a Result")
	}
	return res, full.Summary(), lean.Summary()
}

// TestLeanSummaryMatchesFull pins the lean-mode contract: with the
// Result recording turned off, every Summary field is bit-identical to
// the full-fidelity run, and the full run's own online summary matches
// a post-hoc walk over its Result's logs — the oracle for the online
// fold, which is the only definition qoe reads.
func TestLeanSummaryMatchesFull(t *testing.T) {
	for trace := 1; trace <= 4; trace++ {
		cfg := baseConfig()
		cfg.SessionDuration = 300
		res, fullSum, leanSum := runPair(t, cfg, trace)
		if *describeSummary(fullSum) != *describeSummary(leanSum) {
			t.Fatalf("trace %d: lean summary diverged\nfull: %+v\nlean: %+v", trace, fullSum, leanSum)
		}
		for i := range fullSum.TimeOnTrack {
			if fullSum.TimeOnTrack[i] != leanSum.TimeOnTrack[i] {
				t.Fatalf("trace %d: TimeOnTrack[%d] %v != %v", trace, i, fullSum.TimeOnTrack[i], leanSum.TimeOnTrack[i])
			}
		}
		// The online fold must agree exactly with the Result it shadowed.
		if fullSum.StartupDelay != res.StartupDelay {
			t.Fatalf("trace %d: summary startup %v != result %v", trace, fullSum.StartupDelay, res.StartupDelay)
		}
		stallSec := 0.0
		for _, st := range res.Stalls {
			stallSec += st.Duration()
		}
		if fullSum.StallCount != len(res.Stalls) || fullSum.StallSec != stallSec {
			t.Fatalf("trace %d: summary stalls (%d, %v) != result (%d, %v)",
				trace, fullSum.StallCount, fullSum.StallSec, len(res.Stalls), stallSec)
		}
		// And the displayed-bitrate fold must reproduce the post-hoc walk
		// over the Displayed array.
		var weighted, played float64
		prev := -1
		switches, nonCons := 0, 0
		onTrack := make([]float64, len(res.Declared))
		for i, track := range res.Displayed {
			if track < 0 {
				continue
			}
			dur := res.SegmentDuration
			if start := float64(i) * res.SegmentDuration; start+res.SegmentDuration > res.MediaDuration {
				dur = res.MediaDuration - start
			}
			weighted += res.Declared[track] * dur
			played += dur
			onTrack[track] += dur
			if prev >= 0 && track != prev {
				switches++
				if d := track - prev; d > 1 || d < -1 {
					nonCons++
				}
			}
			prev = track
		}
		if fullSum.WeightedBitrateSec != weighted || fullSum.PlayedMediaSec != played ||
			fullSum.Switches != switches || fullSum.NonConsecutive != nonCons {
			t.Fatalf("trace %d: display fold (%v, %v, %d, %d) != result walk (%v, %v, %d, %d)",
				trace, fullSum.WeightedBitrateSec, fullSum.PlayedMediaSec, fullSum.Switches, fullSum.NonConsecutive,
				weighted, played, switches, nonCons)
		}
		for i := range onTrack {
			if fullSum.TimeOnTrack[i] != onTrack[i] {
				t.Fatalf("trace %d: TimeOnTrack[%d] fold %v != result walk %v", trace, i, fullSum.TimeOnTrack[i], onTrack[i])
			}
		}
	}
}

// describeSummary copies the scalar fields into a comparable struct
// (TimeOnTrack is a slice, checked separately).
func describeSummary(s *Summary) *struct {
	Startup, StallSec, Played, Weighted, PlayedMedia, Total, Wasted float64
	StallN, Sw, NonCons                                             int
} {
	return &struct {
		Startup, StallSec, Played, Weighted, PlayedMedia, Total, Wasted float64
		StallN, Sw, NonCons                                             int
	}{
		s.StartupDelay, s.StallSec, s.PlayedSec, s.WeightedBitrateSec,
		s.PlayedMediaSec, s.TotalBytes, s.WastedBytes,
		s.StallCount, s.Switches, s.NonConsecutive,
	}
}

// TestLeanDoesNotPerturbPeers: in a two-client group over one shared
// link, turning one client lean must not move a single byte of the
// other client's result — lean drops recording, never behavior.
func TestLeanDoesNotPerturbPeers(t *testing.T) {
	run := func(leanPeer bool) *Summary {
		org := buildOrigin(t, 4, false, media.VBR)
		net := simnet.New(simnet.DefaultConfig(), netem.Constant("c", 2e6, 600))
		a, err := NewSession(baseConfig(), org, net)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewSession(baseConfig(), org, net)
		if err != nil {
			t.Fatal(err)
		}
		if leanPeer {
			b.SetLean()
		}
		g := NewGroup()
		if err := g.Add(a); err != nil {
			t.Fatal(err)
		}
		if err := g.Add(b); err != nil {
			t.Fatal(err)
		}
		g.Run()
		return a.Summary()
	}
	fullPeer := run(false)
	leanPeer := run(true)
	if *describeSummary(fullPeer) != *describeSummary(leanPeer) {
		t.Fatalf("peer summary moved when the other client went lean\nwith full peer: %+v\nwith lean peer: %+v", fullPeer, leanPeer)
	}
}

// TestBackgroundFlowSmoke: a background flow (a one-member cohort) alone
// on a fat link plays the whole presentation with sane accounting.
func TestBackgroundFlowSmoke(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(), netem.Constant("c", 8e6, 700))
	c := NewCohort(net)
	c.Add(BackgroundConfig{
		Declared:        []float64{200e3, 400e3, 800e3, 1.6e6},
		SegmentDuration: 4,
		MediaDuration:   600,
		SessionDuration: 650,
	})
	g := NewGroup()
	if err := g.AddCohort(c); err != nil {
		t.Fatal(err)
	}
	var s Summary
	finished := 0
	c.SetObserver(func(_ int, sum *Summary) {
		finished++
		s = cloneSummary(*sum)
	})
	g.Run()
	if finished != 1 {
		t.Fatalf("background observer fired %d times", finished)
	}
	if s.StartupDelay < 0 {
		t.Fatal("background flow never started")
	}
	if math.Abs(s.PlayedMediaSec-600) > 1e-6 {
		t.Fatalf("played %v media seconds, want 600", s.PlayedMediaSec)
	}
	if s.PlayedSec <= 0 || s.TotalBytes <= 0 {
		t.Fatalf("degenerate summary %+v", s)
	}
	// On a fat link the EWMA rule must climb off the bottom rung.
	if s.TimeOnTrack[len(s.TimeOnTrack)-1] == 0 {
		t.Fatalf("never reached the top rung: %v", s.TimeOnTrack)
	}
	if s.AvgBitrate() <= 200e3 {
		t.Fatalf("avg bitrate %v stuck at bottom rung", s.AvgBitrate())
	}
}

// TestBackgroundCompetesForLink: a full session sharing the link must
// depress a background flow's throughput (and therefore its chosen
// rungs and bytes) — the coarse tier moves real bytes through the same
// water-filling, it is not a bookkeeping fiction. The background side
// is the clean probe: its EWMA sees only its own transfer rates,
// whereas the full player's estimator reads network-wide delivery.
func TestBackgroundCompetesForLink(t *testing.T) {
	run := func(withSession bool) Summary {
		org := buildOrigin(t, 4, false, media.VBR)
		net := simnet.New(simnet.DefaultConfig(), netem.Constant("c", 1.2e6, 600))
		g := NewGroup()
		c := NewCohort(net)
		c.Add(BackgroundConfig{
			Declared:        []float64{200e3, 400e3, 800e3, 1.6e6},
			SegmentDuration: 4,
			MediaDuration:   600,
			SessionDuration: 600,
		})
		sums := observeAll(c)
		if err := g.AddCohort(c); err != nil {
			t.Fatal(err)
		}
		if withSession {
			s, err := NewSession(baseConfig(), org, net)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Add(s); err != nil {
				t.Fatal(err)
			}
		}
		g.Run()
		return sums[0]
	}
	alone := run(false)
	contended := run(true)
	if contended.TotalBytes >= alone.TotalBytes {
		t.Fatalf("full session took no bandwidth from the background flow: alone %v bytes, contended %v", alone.TotalBytes, contended.TotalBytes)
	}
	if contended.AvgBitrate() >= alone.AvgBitrate() {
		t.Fatalf("background rung selection ignored contention: alone %v bps, contended %v", alone.AvgBitrate(), contended.AvgBitrate())
	}
}

// foldCrafted streams a hand-built Displayed array (-1 = never played)
// through foldDisplayed on the least Session the fold needs.
func foldCrafted(segDur, mediaDur float64, declared []float64, displayed []int) *Summary {
	s := &Session{
		pres:         &manifest.Presentation{Duration: mediaDur},
		segDur:       segDur,
		declared:     declared,
		sum:          Summary{TimeOnTrack: make([]float64, len(declared))},
		sumPrevTrack: -1,
	}
	for i, track := range displayed {
		if track >= 0 {
			s.foldDisplayed(i, track)
		}
	}
	return &s.sum
}

// TestFoldDisplayedCrafted checks the display-fold arithmetic on a
// hand-built display sequence.
func TestFoldDisplayedCrafted(t *testing.T) {
	sum := foldCrafted(4, 40, []float64{500e3, 1e6, 2e6}, []int{0, 0, 1, 1, 2, -1, -1, -1, -1, -1})
	// Displayed: 2×500k + 2×1M + 1×2M over 5 segments of 4 s.
	want := (2*500e3 + 2*1e6 + 1*2e6) / 5
	if math.Abs(sum.AvgBitrate()-want) > 1 {
		t.Fatalf("avg bitrate %v, want %v", sum.AvgBitrate(), want)
	}
	if sum.Switches != 2 || sum.NonConsecutive != 0 {
		t.Fatalf("switches %d/%d", sum.Switches, sum.NonConsecutive)
	}
	if got := sum.TimeOnTrack; got[0] != 8 || got[1] != 8 || got[2] != 4 {
		t.Fatalf("time on track %v, want [8 8 4]", got)
	}
}

func TestFoldDisplayedNonConsecutive(t *testing.T) {
	sum := foldCrafted(4, 16, []float64{1, 2, 3}, []int{0, 2, 0, 1})
	if sum.Switches != 3 || sum.NonConsecutive != 2 {
		t.Fatalf("switches %d non-consecutive %d", sum.Switches, sum.NonConsecutive)
	}
}

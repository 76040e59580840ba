package player

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/adaptation"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/replacement"
	"repro/internal/simnet"
)

// prevDownloadedTrackScan is the scan of the whole download log that
// prevDownloadedTrack's per-index table replaced, kept as its oracle.
func (s *Session) prevDownloadedTrackScan(index int) int {
	best, bestIdx := -1, -1
	for _, d := range s.res.Downloads {
		if d.Type != media.TypeVideo || d.Replacement || d.End == 0 {
			continue
		}
		if d.Index < index && d.Index > bestIdx {
			bestIdx, best = d.Index, d.Track
		}
	}
	return best
}

// scanCheck stands in for a session's estimator to observe it from
// inside: Add runs on every completed video segment just before the
// completion is applied, so checking there and once after the run
// compares the table with the log scan after every completion — for
// every index, not only the one the session is about to ask for — and
// checks both buffers' order.
type scanCheck struct {
	adaptation.Estimator
	s   *Session
	err error
}

func (c *scanCheck) Add(bits, seconds float64) {
	c.check()
	c.Estimator.Add(bits, seconds)
}

func (c *scanCheck) check() {
	if c.err != nil {
		return
	}
	// Buffer.GC's early return rests on the buffers' order
	// (TestBufferGCMatchesFullFilter).
	for _, b := range []*Buffer{&c.s.videoBuf, &c.s.audioBuf} {
		if err := checkBufferOrder(b); err != nil {
			c.err = fmt.Errorf("t=%.3f: %v", c.s.net.Now(), err)
			return
		}
	}
	for i := 0; i <= c.s.segCount; i++ {
		if got, want := c.s.prevDownloadedTrack(i), c.s.prevDownloadedTrackScan(i); got != want {
			c.err = fmt.Errorf("t=%.3f: prevDownloadedTrack(%d) = %d, log scan %d", c.s.net.Now(), i, got, want)
			return
		}
	}
}

// runScanChecked runs a full session with scanCheck in place and returns
// the first disagreement between the table and the log scan, if any.
func runScanChecked(cfg Config, org *origin.Origin, p *netem.Profile) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	chk := &scanCheck{Estimator: cfg.Estimator}
	cfg.Estimator = chk
	chk.s, err = NewSession(cfg, org, simnet.New(simnet.DefaultConfig(), p))
	if err != nil {
		return nil, err
	}
	res := chk.s.Run()
	chk.check()
	return res, chk.err
}

// TestPrevDownloadedTrackMatchesLogScan drives the table through every
// way the download log departs from "one forward download per index, in
// order": segment replacement (entries the lookup must not see; a
// dropped tail is fetched forward a second time, where the earlier log
// entry must answer), parallel connections (completions out of log
// order) and split requests. Each case is compared with the log scan
// after every completion. The two cases that never seeked keep the
// Events digest recorded with the log scan still in the session; the
// other three lost their seek with the feature and carry the digest the
// parent commit produces for the same seek-free config. ("parallel
// pipeline" was re-recorded at EngineVersion "11", when sessions moved
// onto simnet's anchored loop: one completion time moves in the last ulp.)
func TestPrevDownloadedTrackMatchesLogScan(t *testing.T) {
	step := &netem.Profile{Name: "steps"}
	for i := 0; i < 600; i++ {
		step.Samples = append(step.Samples, []float64{3e6, 0.5e6, 6e6, 1e6}[i/40%4])
	}
	cases := []struct {
		name   string
		audio  bool
		mutate func(*Config)
		events string
	}{
		{"contiguous replacement", false, func(c *Config) {
			c.Replacement = replacement.ContiguousOnUpswitch{}
		}, "41d994170ba4c41e8f3526cd497d143853e996260d06c6686c3a8b8472fc29c4"},
		{"per-segment replacement", false, func(c *Config) {
			c.Replacement = replacement.PerSegment{MinBufferSec: 10, CapTrack: -1}
			c.MidBufferDiscard = true
		}, "10a0f18611b7457b93f47285fb0850c43c467e277746408fdd27983cec9aa102"},
		{"parallel pipeline", false, func(c *Config) {
			c.Scheduler, c.MaxConnections, c.VideoPipeline = SchedulerParallel, 4, 3
		}, "7e72e10aaa8bb48a90f764b6abc7da76059ed2f814ab90afb6241e903f8d452b"},
		{"desynced audio", true, func(c *Config) {
			c.Scheduler, c.MaxConnections, c.Audio = SchedulerParallel, 3, AudioDesynced
		}, "0a4f1556cb726be0f7e1c5d571c09e93d89c5afcde145661c8a8acc2cb8b0412"},
		{"split requests", true, func(c *Config) {
			c.Scheduler, c.MaxConnections, c.SplitSkew = SchedulerSplit, 3, 0.7
		}, "2ac299162bc72923265eaa9301c0d60715a7ddceb00700ec3cd8ec42a03b0965"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			cfg.SessionDuration = 300
			tc.mutate(&cfg)
			res, err := runScanChecked(cfg, buildOrigin(t, 4, tc.audio, media.VBR), step)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			switches := 0
			for _, e := range res.Events {
				fmt.Fprintf(h, "%v|%s|%s\n", e.T, e.Kind, e.Detail())
				if e.Kind == "switch" {
					switches++
				}
			}
			if switches == 0 {
				t.Error("no switch event: the case does not exercise the lookup")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.events {
				t.Errorf("Events digest %s, want %s (%d events, %d switches)", got, tc.events, len(res.Events), switches)
			}
		})
	}
}

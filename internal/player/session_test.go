package player

import (
	"math"
	"testing"

	"repro/internal/adaptation"
	"repro/internal/manifest"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/replacement"
	"repro/internal/simnet"
)

// buildOrigin makes a small DASH presentation for session tests.
func buildOrigin(t *testing.T, segDur float64, separateAudio bool, enc media.Encoding) *origin.Origin {
	t.Helper()
	cfg := media.Config{
		Name: "t", Duration: 600, SegmentDuration: segDur,
		TargetBitrates: []float64{200e3, 400e3, 800e3, 1.6e6},
		Encoding:       enc, VBRSpread: 2, DeclaredPolicy: media.DeclarePeak,
		SeparateAudio: separateAudio, AudioSegmentDuration: 2,
		Seed: 77,
	}
	v, err := media.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	org, err := origin.New(manifest.Build(v, manifest.BuildOptions{
		Protocol: manifest.DASH, Addressing: manifest.SidxRanges,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return org
}

func baseConfig() Config {
	return Config{
		Name: "test", StartupBufferSec: 8, StartupTrack: 1,
		PauseThresholdSec: 40, ResumeThresholdSec: 30,
		MaxConnections: 1, Persistent: true, Scheduler: SchedulerSingle,
		Algorithm: adaptation.Throughput{Factor: 0.75},
	}
}

func runSession(t *testing.T, cfg Config, org *origin.Origin, p *netem.Profile) *Result {
	t.Helper()
	s, err := NewSession(cfg, org, simnet.New(simnet.DefaultConfig(), p))
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

func TestStartupGateDuration(t *testing.T) {
	org := buildOrigin(t, 4, false, media.VBR)
	cfg := baseConfig()
	cfg.StartupBufferSec = 12 // 3 segments
	res := runSession(t, cfg, org, netem.Constant("c", 4e6, 600))
	if res.StartupDelay < 0 {
		t.Fatal("never started")
	}
	// Exactly 3 video segments must complete before startup.
	n := 0
	for _, d := range res.Downloads {
		if d.Type == media.TypeVideo && d.End > 0 && d.End <= res.StartupDelay+1e-9 {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("%d segments before startup, want 3", n)
	}
}

func TestStartupGateSegments(t *testing.T) {
	org := buildOrigin(t, 8, false, media.VBR)
	cfg := baseConfig()
	cfg.StartupBufferSec = 8 // one 8 s segment would satisfy duration...
	cfg.StartupSegments = 3  // ...but the count gate requires three
	res := runSession(t, cfg, org, netem.Constant("c", 4e6, 600))
	n := 0
	for _, d := range res.Downloads {
		if d.Type == media.TypeVideo && d.End > 0 && d.End <= res.StartupDelay+1e-9 {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("%d segments before startup, want 3 (count gate)", n)
	}
}

func TestPauseResumeThresholds(t *testing.T) {
	org := buildOrigin(t, 4, false, media.VBR)
	cfg := baseConfig()
	res := runSession(t, cfg, org, netem.Constant("c", 10e6, 600))
	// The buffer never exceeds pause threshold by more than one segment's
	// worth plus slack, and downloading resumes near the resume level.
	maxBuf := 0.0
	for _, s := range res.Samples {
		if s.VideoSec > maxBuf {
			maxBuf = s.VideoSec
		}
	}
	if maxBuf > cfg.PauseThresholdSec+4+1 {
		t.Fatalf("buffer reached %.1f s, pause threshold %v", maxBuf, cfg.PauseThresholdSec)
	}
	pauses, resumes := 0, 0
	for _, e := range res.Events {
		switch e.Kind {
		case "pause-dl":
			pauses++
		case "resume-dl":
			resumes++
		}
	}
	if pauses < 3 || resumes < 2 {
		t.Fatalf("on/off pattern missing: %d pauses, %d resumes", pauses, resumes)
	}
}

func TestStallsWhenBandwidthTooLow(t *testing.T) {
	org := buildOrigin(t, 4, false, media.VBR)
	cfg := baseConfig()
	// Lowest track actual ≈ 200 kbit/s; 100 kbit/s cannot sustain it.
	res := runSession(t, cfg, org, netem.Constant("c", 100e3, 600))
	if res.Summary.StallSec < 100 {
		t.Fatalf("expected heavy stalling, got %.1f s", res.Summary.StallSec)
	}
	// And playback must still make some progress between stalls.
	if res.Summary.PlayedSec < 10 {
		t.Fatalf("played only %.1f s", res.Summary.PlayedSec)
	}
}

func TestNoStallsWithAmpleBandwidth(t *testing.T) {
	org := buildOrigin(t, 4, false, media.VBR)
	res := runSession(t, baseConfig(), org, netem.Constant("c", 20e6, 600))
	if len(res.Stalls) != 0 {
		t.Fatalf("stalled %d times at 20 Mbit/s", len(res.Stalls))
	}
	if res.StartupDelay > 3 {
		t.Fatalf("startup %.2f s at 20 Mbit/s", res.StartupDelay)
	}
}

func TestSeparateAudioGatesPlayback(t *testing.T) {
	org := buildOrigin(t, 4, true, media.VBR)
	cfg := baseConfig()
	cfg.MaxConnections = 2
	cfg.Scheduler = SchedulerParallel
	res := runSession(t, cfg, org, netem.Constant("c", 5e6, 600))
	// Both audio and video must be buffered before startup.
	var vs, as float64
	for _, d := range res.Downloads {
		if d.End > 0 && d.End <= res.StartupDelay+1e-9 {
			if d.Type == media.TypeVideo {
				vs += d.Duration
			} else {
				as += d.Duration
			}
		}
	}
	if vs < cfg.StartupBufferSec-1e-6 || as < cfg.StartupBufferSec-1e-6 {
		t.Fatalf("startup with video %.1fs audio %.1fs buffered", vs, as)
	}
}

func TestRequestGateStopsDownloads(t *testing.T) {
	org := buildOrigin(t, 4, false, media.VBR)
	cfg := baseConfig()
	cfg.RequestGate = func(r Request) bool { return r.SegmentSeq < 1 }
	res := runSession(t, cfg, org, netem.Constant("c", 10e6, 60))
	if res.StartupDelay >= 0 {
		t.Fatal("one 4 s segment should not satisfy an 8 s startup buffer")
	}
	rejected := 0
	for _, tx := range res.Transactions {
		if tx.Rejected {
			rejected++
		}
	}
	if rejected != 1 {
		t.Fatalf("%d rejected transactions, want 1", rejected)
	}
}

func TestDropTailAccounting(t *testing.T) {
	org := buildOrigin(t, 4, false, media.VBR)
	cfg := baseConfig()
	cfg.Replacement = replacement.ContiguousOnUpswitch{IgnoreBufferedQuality: true}
	cfg.PauseThresholdSec = 120
	cfg.ResumeThresholdSec = 100
	p := netem.Step("s", 6e6, 0.6e6, 60, 600)
	// Down then up: force low-track segments, then recovery triggers SR.
	p2 := &netem.Profile{Name: "updownup"}
	for i := 0; i < 600; i++ {
		switch {
		case i < 60:
			p2.Samples = append(p2.Samples, 6e6)
		case i < 150:
			p2.Samples = append(p2.Samples, 0.6e6)
		default:
			p2.Samples = append(p2.Samples, 6e6)
		}
	}
	_ = p
	res := runSession(t, cfg, org, p2)
	redownloads := map[int]int{}
	for _, d := range res.Downloads {
		if d.Type == media.TypeVideo && d.End > 0 {
			redownloads[d.Index]++
		}
	}
	replaced := 0
	for _, n := range redownloads {
		if n > 1 {
			replaced++
		}
	}
	if replaced == 0 {
		t.Fatal("expected segment replacement on the recovery profile")
	}
	if res.Summary.WastedBytes <= 0 {
		t.Fatal("replacement must account wasted bytes")
	}
	discarded := 0
	for _, d := range res.Downloads {
		if d.Discarded {
			discarded++
		}
	}
	if discarded == 0 {
		t.Fatal("discarded downloads not marked")
	}
}

func TestPerSegmentReplacementImprovesBuffer(t *testing.T) {
	org := buildOrigin(t, 4, false, media.VBR)
	cfg := baseConfig()
	cfg.Replacement = replacement.PerSegment{MinBufferSec: 15, CapTrack: -1}
	cfg.MidBufferDiscard = true
	p := &netem.Profile{Name: "ud"}
	for i := 0; i < 600; i++ {
		if i >= 60 && i < 120 {
			p.Samples = append(p.Samples, 0.6e6)
		} else {
			p.Samples = append(p.Samples, 6e6)
		}
	}
	res := runSession(t, cfg, org, p)
	improved, degraded := 0, 0
	last := map[int]int{}
	for _, d := range res.Downloads {
		if d.Type != media.TypeVideo || d.End == 0 {
			continue
		}
		if prev, ok := last[d.Index]; ok {
			if d.Track > prev {
				improved++
			} else {
				degraded++
			}
		}
		last[d.Index] = d.Track
	}
	if improved == 0 {
		t.Fatal("per-segment SR never replaced anything")
	}
	if degraded != 0 {
		t.Fatalf("per-segment SR degraded %d segments (must be improve-only)", degraded)
	}
}

func TestConfigValidation(t *testing.T) {
	org := buildOrigin(t, 4, false, media.VBR)
	net := simnet.New(simnet.DefaultConfig(), netem.Constant("c", 1e6, 10))
	if _, err := NewSession(Config{}, org, net); err == nil {
		t.Error("accepted config without algorithm")
	}
	bad := baseConfig()
	bad.StartupTrack = 99
	if _, err := NewSession(bad, org, net); err == nil {
		t.Error("accepted out-of-range startup track")
	}
	srBad := baseConfig()
	srBad.Scheduler = SchedulerParallel
	srBad.Replacement = replacement.PerSegment{}
	if _, err := NewSession(srBad, org, net); err == nil {
		t.Error("accepted replacement with a parallel scheduler")
	}
}

func TestMinEstimateSamplesHoldsStartupTrack(t *testing.T) {
	org := buildOrigin(t, 4, false, media.VBR)
	cfg := baseConfig()
	cfg.MinEstimateSamples = 3
	res := runSession(t, cfg, org, netem.Constant("c", 10e6, 60))
	var vids []Download
	for _, d := range res.Downloads {
		if d.Type == media.TypeVideo && d.End > 0 {
			vids = append(vids, d)
		}
	}
	if len(vids) < 4 {
		t.Fatal("too few downloads")
	}
	for i := 0; i < 3; i++ {
		if vids[i].Track != cfg.StartupTrack {
			t.Fatalf("download %d at track %d before warm-up", i, vids[i].Track)
		}
	}
	if vids[3].Track == cfg.StartupTrack {
		t.Fatal("player never adapted after warm-up at 10 Mbit/s")
	}
}

// TestSessionInvariants runs several configurations over several profiles
// and checks structural invariants of the result.
func TestSessionInvariants(t *testing.T) {
	orgs := []*origin.Origin{
		buildOrigin(t, 4, false, media.VBR),
		buildOrigin(t, 2, true, media.CBR),
	}
	profiles := []*netem.Profile{
		netem.Constant("c2", 2e6, 600),
		netem.Cellular(3),
		netem.Step("st", 5e6, 0.5e6, 120, 600),
	}
	for oi, org := range orgs {
		for pi, p := range profiles {
			cfg := baseConfig()
			if oi == 1 {
				cfg.MaxConnections = 2
				cfg.Scheduler = SchedulerParallel
			}
			res := runSession(t, cfg, org, p)
			checkInvariants(t, res)
			_ = pi
		}
	}
}

func checkInvariants(t *testing.T, res *Result) {
	t.Helper()
	// Stalls are disjoint, ordered, inside the session.
	for i, st := range res.Stalls {
		if st.End < st.Start || st.Start < 0 || st.End > res.EndTime+1e-6 {
			t.Fatalf("stall %d out of range: %+v", i, st)
		}
		if i > 0 && st.Start < res.Stalls[i-1].End-1e-9 {
			t.Fatalf("stalls overlap at %d", i)
		}
	}
	// Playback fits inside the presentation.
	played := res.Summary.PlayedSec
	if played > res.MediaDuration+1e-6 {
		t.Fatalf("played %.1f s of a %.1f s presentation", played, res.MediaDuration)
	}
	// Displayed tracks are valid and displayed time ≤ played time.
	displayedSec := 0.0
	for i, tr := range res.Displayed {
		if tr < -1 || tr >= len(res.Declared) {
			t.Fatalf("displayed[%d] = %d", i, tr)
		}
		if tr >= 0 {
			displayedSec += res.SegmentDuration
		}
	}
	if displayedSec > played+2*res.SegmentDuration+1e-6 {
		t.Fatalf("displayed %.1f s vs played %.1f s", displayedSec, played)
	}
	// Byte accounting.
	if res.Summary.WastedBytes < 0 || res.Summary.WastedBytes > res.Summary.TotalBytes {
		t.Fatalf("wasted %v of total %v", res.Summary.WastedBytes, res.Summary.TotalBytes)
	}
	sum := 0.0
	for _, tx := range res.Transactions {
		if !tx.Rejected {
			sum += float64(tx.Bytes)
		}
	}
	if math.Abs(sum-res.Summary.TotalBytes) > 1+res.Summary.TotalBytes/1e3 {
		t.Fatalf("transactions sum %v vs TotalBytes %v", sum, res.Summary.TotalBytes)
	}
	// Downloads that completed have sane timing.
	for i, d := range res.Downloads {
		if d.End > 0 && d.End < d.Start {
			t.Fatalf("download %d reversed times", i)
		}
	}
	// Samples are at 1 Hz with monotone playhead.
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].T != res.Samples[i-1].T+1 {
			t.Fatalf("sample %d at %v after %v", i, res.Samples[i].T, res.Samples[i-1].T)
		}
		if res.Samples[i].Playhead < res.Samples[i-1].Playhead-1e-9 {
			t.Fatalf("playhead regressed at sample %d", i)
		}
	}
}

// TestTemplateAddressingSession: a DASH SegmentTemplate presentation
// streams end to end, its traffic maps back to segments, and — like
// plain HLS — the client sees no per-segment sizes (§4.2).
func TestTemplateAddressingSession(t *testing.T) {
	v, err := media.Generate(media.Config{
		Name: "tpl", Duration: 300, SegmentDuration: 4,
		TargetBitrates: []float64{200e3, 400e3, 800e3},
		Encoding:       media.VBR, VBRSpread: 2, DeclaredPolicy: media.DeclarePeak,
		Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	org, err := origin.New(manifest.Build(v, manifest.BuildOptions{
		Protocol: manifest.DASH, Addressing: manifest.TemplateNumber,
	}))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.ExposeSegmentSizes = true // must be a no-op: the wire hides sizes
	res := runSession(t, cfg, org, netem.Constant("c", 3e6, 300))
	if res.StartupDelay < 0 || res.Summary.StallSec > 0 {
		t.Fatalf("startup %.1f stalls %.1f", res.StartupDelay, res.Summary.StallSec)
	}
	// The client view stripped the sizes even though config asked.
	if s := org.ClientView(); s.Video[0].Segments[0].Size != 0 {
		t.Fatal("template addressing leaked sizes to the client")
	}
}

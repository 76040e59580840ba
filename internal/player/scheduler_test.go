package player

import (
	"testing"

	"repro/internal/adaptation"
	"repro/internal/manifest"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/simnet"
	"repro/internal/traffic"
)

// maxConcurrent counts peak overlapping transactions.
func maxConcurrent(txs []traffic.Transaction) int {
	type ev struct {
		t float64
		d int
	}
	var evs []ev
	for _, tx := range txs {
		if !tx.Rejected {
			evs = append(evs, ev{tx.Start, 1}, ev{tx.End, -1})
		}
	}
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && (evs[j].t < evs[j-1].t || (evs[j].t == evs[j-1].t && evs[j].d < evs[j-1].d)); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	cur, max := 0, 0
	for _, e := range evs {
		cur += e.d
		if cur > max {
			max = cur
		}
	}
	return max
}

func TestSplitSchedulerUsesAllConnections(t *testing.T) {
	org := buildOrigin(t, 4, true, media.VBR)
	cfg := baseConfig()
	cfg.MaxConnections = 3
	cfg.Scheduler = SchedulerSplit
	res := runSession(t, cfg, org, netem.Constant("c", 5e6, 600))
	if got := maxConcurrent(res.Transactions); got != 3 {
		t.Fatalf("split scheduler peak concurrency %d, want 3", got)
	}
	// Split parts of a segment must tile its byte range exactly.
	byURL := map[string][]traffic.Transaction{}
	for _, tx := range res.Transactions {
		if tx.Body == nil && tx.RangeStart >= 0 {
			byURL[tx.URL] = append(byURL[tx.URL], tx)
		}
	}
	checked := 0
	for _, r := range org.Pres.Video {
		for _, seg := range r.Segments {
			var covered int64
			for _, tx := range byURL[r.MediaURL] {
				if tx.RangeStart >= seg.Offset && tx.RangeEnd < seg.Offset+seg.Length {
					covered += tx.RangeEnd - tx.RangeStart + 1
				}
			}
			if covered > 0 {
				if covered != seg.Length {
					t.Fatalf("segment at %d: parts cover %d of %d bytes", seg.Offset, covered, seg.Length)
				}
				checked++
			}
		}
	}
	if checked < 5 {
		t.Fatalf("only %d split segments verified", checked)
	}
}

func TestSplitSkewPreservesCoverage(t *testing.T) {
	org := buildOrigin(t, 4, true, media.VBR)
	cfg := baseConfig()
	cfg.MaxConnections = 3
	cfg.Scheduler = SchedulerSplit
	cfg.SplitSkew = 1.5
	res := runSession(t, cfg, org, netem.Constant("c", 5e6, 120))
	var total float64
	for _, d := range res.Downloads {
		if d.End > 0 {
			total += d.Bytes
		}
	}
	var txTotal float64
	for _, tx := range res.Transactions {
		if tx.Body == nil && !tx.Rejected {
			txTotal += float64(tx.Bytes)
		}
	}
	if diff := txTotal - total; diff < -1 || diff > 1 {
		t.Fatalf("skewed split lost bytes: downloads %.0f vs transactions %.0f", total, txTotal)
	}
}

func TestParallelDesyncedPipelinesVideo(t *testing.T) {
	org := buildOrigin(t, 4, true, media.VBR)
	cfg := baseConfig()
	cfg.MaxConnections = 4
	cfg.Scheduler = SchedulerParallel
	cfg.Audio = AudioDesynced
	cfg.PauseThresholdSec = 120
	cfg.ResumeThresholdSec = 110
	res := runSession(t, cfg, org, netem.Constant("c", 5e6, 600))
	if got := maxConcurrent(res.Transactions); got < 3 {
		t.Fatalf("desynced pipeline concurrency %d, want ≥3", got)
	}
	// In steady state audio never runs far ahead of video in the
	// desynced design (the scheduler only fetches audio while its
	// scheduled end trails video; startup transients are exempt).
	for _, s := range res.Samples {
		if s.T < 60 {
			continue
		}
		if s.AudioSec > s.VideoSec+12+1e-6 {
			t.Fatalf("audio buffer %.1f far ahead of video %.1f at t=%.0f", s.AudioSec, s.VideoSec, s.T)
		}
	}
}

func TestParallelSyncedKeepsBuffersClose(t *testing.T) {
	org := buildOrigin(t, 4, true, media.VBR)
	cfg := baseConfig()
	cfg.MaxConnections = 2
	cfg.Scheduler = SchedulerParallel
	cfg.Audio = AudioSynced
	res := runSession(t, cfg, org, netem.Cellular(2))
	worst := 0.0
	for _, s := range res.Samples {
		if s.T < 30 {
			continue
		}
		if d := s.VideoSec - s.AudioSec; d > worst {
			worst = d
		}
		if d := s.AudioSec - s.VideoSec; d > worst {
			worst = d
		}
	}
	if worst > 15 {
		t.Fatalf("synced buffers drifted %.1f s apart", worst)
	}
}

func TestNonPersistentReducesThroughput(t *testing.T) {
	org := buildOrigin(t, 4, false, media.VBR)
	p := netem.Constant("c", 6e6, 600)
	// Measure pure download pace: huge control thresholds so the
	// download controller never pauses, fixed track so adaptation does
	// not differ, and compare when the 30th segment lands.
	run := func(persistent bool) float64 {
		cfg := baseConfig()
		cfg.Persistent = persistent
		cfg.Algorithm = fixedTrack(2)
		cfg.PauseThresholdSec = 1e4
		cfg.ResumeThresholdSec = 1e4 - 10
		s, err := NewSession(cfg, org, simnet.New(simnet.DefaultConfig(), p))
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		n := 0
		for _, d := range res.Downloads {
			if d.End > 0 {
				n++
				if n == 30 {
					return d.End
				}
			}
		}
		t.Fatal("fewer than 30 downloads")
		return 0
	}
	fresh, kept := run(false), run(true)
	if fresh <= kept {
		t.Fatalf("non-persistent reached segment 30 at %.1fs, persistent at %.1fs — handshakes and slow start should cost time", fresh, kept)
	}
}

// TestHLSLazyPlaylists: an HLS player fetches a track's media playlist
// before its first segment from that track, and only for tracks it uses.
func TestHLSLazyPlaylists(t *testing.T) {
	v, err := media.Generate(media.Config{
		Name: "hlz", Duration: 600, SegmentDuration: 4,
		TargetBitrates: []float64{200e3, 400e3, 800e3, 1.6e6},
		Encoding:       media.VBR, VBRSpread: 2, DeclaredPolicy: media.DeclarePeak,
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	org, err := buildHLSOrigin(v)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	res := runSession(t, cfg, org, netem.Constant("c", 2e6, 600))
	playlists := map[string]bool{}
	tracksUsed := map[int]bool{}
	for _, tx := range res.Transactions {
		if tx.Body != nil && tx.URL != org.Pres.ManifestURL() {
			playlists[tx.URL] = true
		}
	}
	for _, d := range res.Downloads {
		if d.Type == media.TypeVideo && d.End > 0 {
			tracksUsed[d.Track] = true
		}
	}
	if len(playlists) != len(tracksUsed) {
		t.Fatalf("fetched %d playlists for %d used tracks", len(playlists), len(tracksUsed))
	}
	for tr := range tracksUsed {
		if !playlists[org.Pres.Video[tr].PlaylistURL] {
			t.Fatalf("track %d streamed without its playlist", tr)
		}
	}
}

func buildHLSOrigin(v *media.Video) (*origin.Origin, error) {
	return origin.New(manifest.Build(v, manifest.BuildOptions{Protocol: manifest.HLS}))
}

// fixedTrack is an Algorithm that always selects the same track.
type fixedTrack int

func (f fixedTrack) Select(adaptation.Context) int { return int(f) }

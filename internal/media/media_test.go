package media

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{
		Name: "t", Duration: 600, SegmentDuration: 4,
		TargetBitrates: []float64{250e3, 500e3, 1e6, 2e6},
		Encoding:       VBR, VBRSpread: 2, DeclaredPolicy: DeclarePeak,
		Seed: 1,
	}
}

func TestGenerateBasics(t *testing.T) {
	v, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.SegmentCount(), 150; got != want {
		t.Fatalf("SegmentCount = %d, want %d", got, want)
	}
	if got := len(v.Tracks); got != 4 {
		t.Fatalf("tracks = %d, want 4", got)
	}
	for i, tr := range v.Tracks {
		if len(tr.SegmentBytes) != v.SegmentCount() {
			t.Fatalf("track %d has %d segments", i, len(tr.SegmentBytes))
		}
		if tr.ID != i {
			t.Errorf("track %d has ID %d", i, tr.ID)
		}
	}
	if len(v.AudioTracks) > 0 {
		t.Error("unexpected separate audio")
	}
}

func TestGenerateLadderAscending(t *testing.T) {
	v, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(v.Tracks); i++ {
		if v.Tracks[i].DeclaredBitrate <= v.Tracks[i-1].DeclaredBitrate {
			t.Errorf("declared not ascending at %d", i)
		}
		// Same complexity series ⇒ sizes scale with target per segment.
		for j := range v.Tracks[i].SegmentBytes {
			if v.Tracks[i].SegmentBytes[j] <= v.Tracks[i-1].SegmentBytes[j] {
				t.Fatalf("segment %d of track %d not larger than track %d", j, i, i-1)
			}
		}
	}
}

func TestVBRAverageMatchesTarget(t *testing.T) {
	v, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range v.Tracks {
		avg := tr.AverageBitrate()
		if math.Abs(avg-tr.TargetBitrate)/tr.TargetBitrate > 0.02 {
			t.Errorf("track %d avg %.0f vs target %.0f", tr.ID, avg, tr.TargetBitrate)
		}
	}
}

func TestVBRSpread(t *testing.T) {
	v, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := v.HighestTrack()
	ratio := peakBitrate(tr) / tr.AverageBitrate()
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("peak/avg = %.2f, want ≈2 (VBRSpread)", ratio)
	}
	// Peak-declared policy: declared ≈ spread × target.
	if math.Abs(tr.DeclaredBitrate-2*tr.TargetBitrate) > 1 {
		t.Errorf("declared %.0f, want 2×target %.0f", tr.DeclaredBitrate, 2*tr.TargetBitrate)
	}
}

// peakBitrate is the maximum actual segment bitrate of a track.
func peakBitrate(t *Track) float64 {
	peak := 0.0
	for i, b := range t.SegmentBytes {
		if r := b * 8 / t.segDur(i); r > peak {
			peak = r
		}
	}
	return peak
}

func TestCBRTight(t *testing.T) {
	cfg := testConfig()
	cfg.Encoding = CBR
	v, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := v.HighestTrack()
	if r := peakBitrate(tr) / tr.AverageBitrate(); r > 1.05 {
		t.Errorf("CBR peak/avg = %.3f, want ≤1.05", r)
	}
	if tr.DeclaredBitrate != tr.TargetBitrate {
		t.Errorf("CBR declared %v != target %v", tr.DeclaredBitrate, tr.TargetBitrate)
	}
}

func TestDeclareAverage(t *testing.T) {
	cfg := testConfig()
	cfg.DeclaredPolicy = DeclareAverage
	v, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range v.Tracks {
		if tr.DeclaredBitrate != tr.TargetBitrate {
			t.Errorf("average-declared track %d: declared %v != target %v", tr.ID, tr.DeclaredBitrate, tr.TargetBitrate)
		}
	}
}

func TestSeparateAudio(t *testing.T) {
	cfg := testConfig()
	cfg.SeparateAudio = true
	cfg.AudioBitrate = 128e3
	cfg.AudioSegmentDuration = 2
	v, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.AudioTracks) == 0 {
		t.Fatal("expected separate audio")
	}
	if got, want := v.AudioSegmentCount(), 300; got != want {
		t.Fatalf("audio segments = %d, want %d", got, want)
	}
	at := v.AudioTracks[0]
	if at.Type != TypeAudio {
		t.Error("audio track type")
	}
	if math.Abs(at.AverageBitrate()-128e3) > 1e3 {
		t.Errorf("audio avg %.0f, want 128k", at.AverageBitrate())
	}
}

func TestLastSegmentShorter(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = 10
	cfg.SegmentDuration = 4
	v, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.SegmentCount(); got != 3 {
		t.Fatalf("segments = %d, want 3", got)
	}
	if got := v.SegmentLength(2); math.Abs(got-2) > 1e-9 {
		t.Fatalf("last segment length = %v, want 2", got)
	}
	if got := v.SegmentLength(0); got != 4 {
		t.Fatalf("first segment length = %v, want 4", got)
	}
}

func TestGenerateErrors(t *testing.T) {
	bad := []Config{
		{},                                 // zero durations
		{Duration: 10, SegmentDuration: 2}, // empty ladder
		{Duration: 10, SegmentDuration: 2, TargetBitrates: []float64{2e6, 1e6}}, // not ascending
		{Duration: -1, SegmentDuration: 2, TargetBitrates: []float64{1e6}},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(testConfig())
	b, _ := Generate(testConfig())
	for i := range a.Tracks {
		for j := range a.Tracks[i].SegmentBytes {
			if a.Tracks[i].SegmentBytes[j] != b.Tracks[i].SegmentBytes[j] {
				t.Fatalf("generation not deterministic at track %d seg %d", i, j)
			}
		}
	}
}

// TestQuickGenerateInvariants property-tests generation over random valid
// configs: sizes positive, mean ≈ target, complexity mean 1, monotone
// ladder.
func TestQuickGenerateInvariants(t *testing.T) {
	f := func(seed int64, nTracks uint8, segDur8 uint8, vbr bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nTracks%5) + 1
		ladder := make([]float64, n)
		b := 100e3 * (1 + rng.Float64())
		for i := range ladder {
			ladder[i] = b
			b *= 1.5 + rng.Float64()
		}
		cfg := Config{
			Name: "q", Duration: 120, SegmentDuration: float64(segDur8%9) + 1,
			TargetBitrates: ladder, Seed: seed,
			VBRSpread: 1.5 + rng.Float64(),
		}
		if vbr {
			cfg.Encoding = VBR
		}
		v, err := Generate(cfg)
		if err != nil {
			return false
		}
		mean := 0.0
		for _, c := range v.Complexity {
			if c <= 0 {
				return false
			}
			mean += c
		}
		mean /= float64(len(v.Complexity))
		if math.Abs(mean-1) > 0.02 {
			return false
		}
		for _, tr := range v.Tracks {
			for _, sz := range tr.SegmentBytes {
				if sz <= 0 {
					return false
				}
			}
			// The complexity series is normalised unweighted; a short
			// final segment can skew the duration-weighted mean a bit.
			if math.Abs(tr.AverageBitrate()-tr.TargetBitrate)/tr.TargetBitrate > 0.15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

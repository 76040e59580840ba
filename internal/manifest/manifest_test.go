package manifest

import (
	"math"
	"strings"
	"testing"

	"repro/internal/media"
)

func testVideo(t *testing.T, separateAudio bool) *media.Video {
	t.Helper()
	v, err := media.Generate(media.Config{
		Name: "tv", Duration: 60, SegmentDuration: 4,
		TargetBitrates: []float64{250e3, 500e3, 1e6},
		Encoding:       media.VBR, VBRSpread: 2, DeclaredPolicy: media.DeclarePeak,
		SeparateAudio: separateAudio, AudioSegmentDuration: 2,
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestBuildHLS(t *testing.T) {
	p := Build(testVideo(t, false), BuildOptions{Protocol: HLS})
	if p.Addressing != SeparateFiles {
		t.Fatalf("HLS addressing = %v", p.Addressing)
	}
	if p.ManifestURL() != "/tv/master.m3u8" {
		t.Errorf("manifest URL %q", p.ManifestURL())
	}
	for _, r := range p.Video {
		if r.PlaylistURL == "" {
			t.Errorf("track %d missing playlist URL", r.ID)
		}
		for i, s := range r.Segments {
			if s.URL == "" || s.Length != 0 {
				t.Fatalf("HLS segment %d should have its own URL, no range", i)
			}
			if s.Size <= 0 {
				t.Fatalf("segment %d missing size", i)
			}
		}
	}
}

func TestBuildDASHRanges(t *testing.T) {
	for _, addr := range []Addressing{RangesInManifest, SidxRanges} {
		p := Build(testVideo(t, true), BuildOptions{Protocol: DASH, Addressing: addr})
		if p.Addressing != addr {
			t.Fatalf("addressing = %v, want %v", p.Addressing, addr)
		}
		if len(p.Audio) != 1 {
			t.Fatalf("audio renditions = %d", len(p.Audio))
		}
		for _, r := range append(append([]*Rendition{}, p.Video...), p.Audio...) {
			if r.MediaURL == "" {
				t.Fatal("missing media URL")
			}
			off := r.Segments[0].Offset
			for i, s := range r.Segments {
				if s.URL != "" {
					t.Fatal("ranged segment should have no URL")
				}
				if s.Offset != off {
					t.Fatalf("segment %d offset %d, want contiguous %d", i, s.Offset, off)
				}
				if s.Length != s.Size {
					t.Fatalf("segment %d length %d != size %d", i, s.Length, s.Size)
				}
				off += s.Length
			}
			if r.IndexOffset <= 0 || r.IndexLength <= 0 {
				t.Fatal("missing index range")
			}
			if r.Segments[0].Offset < r.IndexOffset+r.IndexLength {
				t.Fatal("first segment overlaps the index region")
			}
		}
	}
}

func TestBuildSmooth(t *testing.T) {
	p := Build(testVideo(t, true), BuildOptions{Protocol: Smooth})
	if p.Addressing != TemplateURLs {
		t.Fatalf("addressing = %v", p.Addressing)
	}
	s := p.Video[1].Segments[2]
	if !strings.Contains(s.URL, "QualityLevels(") || !strings.Contains(s.URL, "Fragments(video=") {
		t.Errorf("smooth URL %q", s.URL)
	}
	wantStart := int64(2 * 4 * SmoothTimescale)
	if !strings.Contains(s.URL, "=80000000)") {
		t.Errorf("smooth URL %q missing start time %d", s.URL, wantStart)
	}
}

func TestBuildSegmentTiming(t *testing.T) {
	p := Build(testVideo(t, false), BuildOptions{Protocol: HLS})
	r := p.Video[0]
	total := 0.0
	for i, s := range r.Segments {
		if math.Abs(s.Start-float64(i)*4) > 1e-9 {
			t.Fatalf("segment %d start %v", i, s.Start)
		}
		total += s.Duration
	}
	if math.Abs(total-60) > 1e-6 {
		t.Fatalf("durations sum to %v, want 60", total)
	}
}

func TestDeclareAverageOption(t *testing.T) {
	p := Build(testVideo(t, false), BuildOptions{Protocol: HLS, DeclareAverage: true})
	for _, r := range p.Video {
		if r.AverageBitrate <= 0 || r.AverageBitrate >= r.DeclaredBitrate {
			t.Errorf("track %d average %v vs declared %v", r.ID, r.AverageBitrate, r.DeclaredBitrate)
		}
	}
}

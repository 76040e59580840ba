package hls

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/manifest"
	"repro/internal/media"
)

func buildPresentation(t *testing.T) *manifest.Presentation {
	t.Helper()
	v, err := media.Generate(media.Config{
		Name: "h", Duration: 30, SegmentDuration: 4,
		TargetBitrates: []float64{300e3, 600e3, 1.2e6},
		Encoding:       media.VBR, VBRSpread: 2, DeclaredPolicy: media.DeclarePeak,
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return manifest.Build(v, manifest.BuildOptions{Protocol: manifest.HLS, DeclareAverage: true})
}

func TestMasterRoundTrip(t *testing.T) {
	p := buildPresentation(t)
	master := EncodeMaster(p)
	vars, err := ParseMaster(master)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != len(p.Video) {
		t.Fatalf("%d variants, want %d", len(vars), len(p.Video))
	}
	for i, v := range vars {
		r := p.Video[i]
		if v.Bandwidth != math.Trunc(r.DeclaredBitrate) {
			t.Errorf("variant %d bandwidth %v vs %v", i, v.Bandwidth, r.DeclaredBitrate)
		}
		if v.AverageBandwidth <= 0 {
			t.Errorf("variant %d missing AVERAGE-BANDWIDTH", i)
		}
		if v.URI != r.PlaylistURL {
			t.Errorf("variant %d URI %q", i, v.URI)
		}
		if v.Width != r.Width || v.Height != r.Height {
			t.Errorf("variant %d resolution %dx%d", i, v.Width, v.Height)
		}
	}
}

func TestMediaRoundTrip(t *testing.T) {
	p := buildPresentation(t)
	r := p.Video[1]
	segs, err := ParseMedia(EncodeMedia(r))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != len(r.Segments) {
		t.Fatalf("%d segments, want %d", len(segs), len(r.Segments))
	}
	for i, s := range segs {
		if s.URI != r.Segments[i].URL {
			t.Errorf("segment %d URI %q", i, s.URI)
		}
		if math.Abs(s.Duration-r.Segments[i].Duration) > 1e-4 {
			t.Errorf("segment %d duration %v vs %v", i, s.Duration, r.Segments[i].Duration)
		}
	}
}

func TestByteRangeEncodeParse(t *testing.T) {
	r := &manifest.Rendition{
		SegmentDuration: 2,
		Segments: []manifest.Segment{
			{URL: "/m.ts", Offset: 100, Length: 50, Duration: 2},
			{URL: "/m.ts", Offset: 150, Length: 70, Duration: 2},
		},
	}
	segs, err := ParseMedia(EncodeMedia(r))
	if err != nil {
		t.Fatal(err)
	}
	if segs[0].Offset != 100 || segs[0].Length != 50 || segs[1].Offset != 150 || segs[1].Length != 70 {
		t.Fatalf("byterange round trip: %+v", segs)
	}
}

func TestByteRangeImplicitOffset(t *testing.T) {
	text := "#EXTM3U\n#EXTINF:2,\n#EXT-X-BYTERANGE:50@100\na.ts\n#EXTINF:2,\n#EXT-X-BYTERANGE:70\na.ts\n"
	segs, err := ParseMedia(text)
	if err != nil {
		t.Fatal(err)
	}
	if segs[1].Offset != 150 {
		t.Fatalf("implicit offset = %d, want 150", segs[1].Offset)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseMaster("not a playlist"); err == nil {
		t.Error("ParseMaster accepted garbage")
	}
	if _, err := ParseMaster("#EXTM3U\n#EXT-X-STREAM-INF:RESOLUTION=1x1\nx.m3u8\n"); err == nil {
		t.Error("ParseMaster accepted variant without BANDWIDTH")
	}
	if _, err := ParseMedia("nope"); err == nil {
		t.Error("ParseMedia accepted garbage")
	}
	if _, err := ParseMedia("#EXTM3U\nseg.ts\n"); err == nil {
		t.Error("ParseMedia accepted segment without EXTINF")
	}
	if _, err := ParseMaster("#EXTM3U\n"); err == nil {
		t.Error("ParseMaster accepted empty master")
	}
}

func TestAttrParsingQuotes(t *testing.T) {
	text := "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=1000,CODECS=\"avc1,mp4a\",RESOLUTION=640x360\npl.m3u8\n"
	vars, err := ParseMaster(text)
	if err != nil {
		t.Fatal(err)
	}
	if vars[0].Bandwidth != 1000 || vars[0].Width != 640 {
		t.Fatalf("quoted attrs broke parsing: %+v", vars[0])
	}
}

// TestQuickMediaRoundTrip property-tests the media playlist codec with
// random segment lists.
func TestQuickMediaRoundTrip(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 || len(durs) > 200 {
			return true
		}
		r := &manifest.Rendition{SegmentDuration: 4}
		for i, d := range durs {
			r.Segments = append(r.Segments, manifest.Segment{
				URL:      strings.ReplaceAll("/seg-#.ts", "#", string(rune('a'+i%26))),
				Duration: float64(d%10000)/1000 + 0.001,
			})
		}
		segs, err := ParseMedia(EncodeMedia(r))
		if err != nil || len(segs) != len(r.Segments) {
			return false
		}
		for i := range segs {
			if math.Abs(segs[i].Duration-r.Segments[i].Duration) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestParseMediaPlaylistHeaders(t *testing.T) {
	text := "#EXTM3U\n#EXT-X-TARGETDURATION:6\n#EXT-X-MEDIA-SEQUENCE:42\n" +
		"#EXTINF:4,\nseg42.ts\n#EXTINF:4,\nseg43.ts\n#EXT-X-ENDLIST\n"
	segs, err := ParseMedia(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].URI != "seg42.ts" {
		t.Fatalf("segments %+v", segs)
	}
	// Bad headers error out.
	if _, err := ParseMedia("#EXTM3U\n#EXT-X-MEDIA-SEQUENCE:x\n"); err == nil {
		t.Fatal("bad MEDIA-SEQUENCE accepted")
	}
	if _, err := ParseMedia("#EXTM3U\n#EXT-X-TARGETDURATION:y\n"); err == nil {
		t.Fatal("bad TARGETDURATION accepted")
	}
}

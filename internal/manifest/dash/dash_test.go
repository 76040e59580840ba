package dash

import (
	"math"
	"strings"
	"testing"

	"repro/internal/manifest"
	"repro/internal/manifest/sidx"
	"repro/internal/media"
)

func buildPresentation(t *testing.T, addr manifest.Addressing) *manifest.Presentation {
	t.Helper()
	v, err := media.Generate(media.Config{
		Name: "d", Duration: 30, SegmentDuration: 5,
		TargetBitrates: []float64{300e3, 600e3, 1.2e6},
		Encoding:       media.VBR, VBRSpread: 2, DeclaredPolicy: media.DeclarePeak,
		SeparateAudio: true, AudioSegmentDuration: 2,
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return manifest.Build(v, manifest.BuildOptions{Protocol: manifest.DASH, Addressing: addr})
}

// sidxBodiesFor encodes the Segment Index box for every rendition the way
// the origin does.
func sidxBodiesFor(p *manifest.Presentation) map[string][]byte {
	out := map[string][]byte{}
	for _, r := range append(append([]*manifest.Rendition{}, p.Video...), p.Audio...) {
		var sizes []int64
		var durs []float64
		for _, s := range r.Segments {
			sizes = append(sizes, s.Size)
			durs = append(durs, s.Duration)
		}
		out[r.MediaURL] = sidx.Encode(sidx.FromSegments(sizes, durs, 1000))
	}
	return out
}

func TestRoundTripSegmentList(t *testing.T) {
	p := buildPresentation(t, manifest.RangesInManifest)
	body, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode("d", body, nil)
	if err != nil {
		t.Fatal(err)
	}
	compare(t, p, q)
}

func TestRoundTripSidx(t *testing.T) {
	p := buildPresentation(t, manifest.SidxRanges)
	body, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode("d", body, map[string][]byte{}); err == nil {
		t.Fatal("Decode should fail without sidx bodies")
	}
	q, err := Decode("d", body, sidxBodiesFor(p))
	if err != nil {
		t.Fatal(err)
	}
	compare(t, p, q)
}

func compare(t *testing.T, p, q *manifest.Presentation) {
	t.Helper()
	if len(q.Video) != len(p.Video) || len(q.Audio) != len(p.Audio) {
		t.Fatalf("rendition counts %d/%d vs %d/%d", len(q.Video), len(q.Audio), len(p.Video), len(p.Audio))
	}
	if math.Abs(q.Duration-p.Duration) > 1e-6 {
		t.Errorf("duration %v vs %v", q.Duration, p.Duration)
	}
	for i, r := range q.Video {
		want := p.Video[i]
		if r.DeclaredBitrate != math.Trunc(want.DeclaredBitrate) {
			t.Errorf("track %d declared %v vs %v", i, r.DeclaredBitrate, want.DeclaredBitrate)
		}
		if len(r.Segments) != len(want.Segments) {
			t.Fatalf("track %d segments %d vs %d", i, len(r.Segments), len(want.Segments))
		}
		for j, s := range r.Segments {
			w := want.Segments[j]
			if s.Offset != w.Offset || s.Length != w.Length {
				t.Fatalf("track %d seg %d range %d+%d vs %d+%d", i, j, s.Offset, s.Length, w.Offset, w.Length)
			}
			if math.Abs(s.Duration-w.Duration) > 2e-3 {
				t.Fatalf("track %d seg %d duration %v vs %v", i, j, s.Duration, w.Duration)
			}
			if math.Abs(s.Start-w.Start) > 2e-2 {
				t.Fatalf("track %d seg %d start %v vs %v", i, j, s.Start, w.Start)
			}
		}
	}
}

func TestDurationFormat(t *testing.T) {
	cases := []struct {
		s    string
		want float64
	}{
		{"PT600S", 600},
		{"PT10M", 600},
		{"PT1H30M5.5S", 5405.5},
		{"PT0.5S", 0.5},
	}
	for _, c := range cases {
		got, err := parseDuration(c.s)
		if err != nil || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("parseDuration(%q) = %v, %v", c.s, got, err)
		}
	}
	for _, bad := range []string{"", "600", "P1D", "PTXS"} {
		if _, err := parseDuration(bad); err == nil {
			t.Errorf("parseDuration(%q) accepted", bad)
		}
	}
	if got := formatDuration(600); got != "PT600S" {
		t.Errorf("formatDuration = %q", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode("d", []byte("<notxml"), nil); err == nil {
		t.Error("accepted garbage XML")
	}
	if _, err := Decode("d", []byte("<MPD xmlns=\"urn:mpeg:dash:schema:mpd:2011\" mediaPresentationDuration=\"PT10S\"></MPD>"), nil); err == nil {
		t.Error("accepted MPD without Period")
	}
}

func TestEncodeIsValidXML(t *testing.T) {
	p := buildPresentation(t, manifest.SidxRanges)
	body, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	s := string(body)
	for _, want := range []string{"<MPD", "urn:mpeg:dash:schema:mpd:2011", "SegmentBase", "indexRange=", "<BaseURL>"} {
		if !strings.Contains(s, want) {
			t.Errorf("MPD missing %q", want)
		}
	}
}

func TestRoundTripSegmentTemplate(t *testing.T) {
	p := buildPresentation(t, manifest.TemplateNumber)
	body, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "$Number$") {
		t.Fatal("MPD missing $Number$ template")
	}
	q, err := Decode("d", body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Addressing != manifest.TemplateNumber {
		t.Fatalf("addressing %v", q.Addressing)
	}
	if len(q.Video) != len(p.Video) {
		t.Fatalf("%d tracks", len(q.Video))
	}
	for i, r := range q.Video {
		want := p.Video[i]
		if len(r.Segments) != len(want.Segments) {
			t.Fatalf("track %d: %d segments vs %d", i, len(r.Segments), len(want.Segments))
		}
		for j := range r.Segments {
			if r.Segments[j].URL != want.Segments[j].URL {
				t.Fatalf("track %d seg %d URL %q vs %q", i, j, r.Segments[j].URL, want.Segments[j].URL)
			}
			// Templates expose no sizes.
			if r.Segments[j].Size != 0 {
				t.Fatalf("template decode leaked a size")
			}
		}
	}
}

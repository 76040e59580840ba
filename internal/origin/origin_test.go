package origin

import (
	"strings"
	"testing"

	"repro/internal/manifest"
	"repro/internal/manifest/sidx"
	"repro/internal/media"
)

func build(t *testing.T, proto manifest.Protocol, addr manifest.Addressing) *Origin {
	t.Helper()
	v, err := media.Generate(media.Config{
		Name: "o", Duration: 20, SegmentDuration: 4,
		TargetBitrates: []float64{300e3, 600e3},
		Encoding:       media.VBR, VBRSpread: 2, DeclaredPolicy: media.DeclarePeak,
		SeparateAudio: proto != manifest.HLS, AudioSegmentDuration: 2,
		Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	org, err := New(manifest.Build(v, manifest.BuildOptions{Protocol: proto, Addressing: addr}))
	if err != nil {
		t.Fatal(err)
	}
	return org
}

func TestDocumentLookups(t *testing.T) {
	org := build(t, manifest.HLS, 0)
	if body, ok := org.Document("/o/master.m3u8"); !ok || !strings.HasPrefix(string(body), "#EXTM3U") {
		t.Fatalf("master playlist %q", body)
	}
	if _, ok := org.Document(org.Pres.Video[0].PlaylistURL); !ok {
		t.Fatal("media playlist missing")
	}
	if _, ok := org.Document("/nope"); ok {
		t.Fatal("bogus document found")
	}
	dash := build(t, manifest.DASH, manifest.SidxRanges)
	if _, ok := dash.Document("/o/manifest.mpd"); !ok {
		t.Fatal("MPD missing")
	}
	r := dash.Pres.Video[0]
	sx, ok := dash.Sidx(r.MediaURL)
	if !ok {
		t.Fatal("sidx missing")
	}
	box, err := sidx.Decode(sx)
	if err != nil {
		t.Fatalf("sidx: %v", err)
	}
	if len(box.References) != len(r.Segments) {
		t.Fatalf("sidx has %d refs, want %d", len(box.References), len(r.Segments))
	}
}

func TestSmoothServing(t *testing.T) {
	org := build(t, manifest.Smooth, 0)
	body, ok := org.Document("/o/Manifest")
	if !ok || !strings.Contains(string(body), "<SmoothStreamingMedia") {
		t.Fatal("manifest body wrong")
	}
	// Fragments are separate URLs whose sizes only the origin knows: the
	// client view hides them (§4.2).
	view := org.ClientView()
	for i, r := range org.Pres.Video {
		for j, seg := range r.Segments {
			if seg.URL == "" || seg.Size <= 0 {
				t.Fatalf("rendition %d fragment %d: URL %q size %d", i, j, seg.URL, seg.Size)
			}
			if got := view.Video[i].Segments[j].Size; got != 0 {
				t.Fatalf("client view exposes fragment size %d", got)
			}
		}
	}
}

func TestObfuscatedManifest(t *testing.T) {
	v, err := media.Generate(media.Config{
		Name: "enc", Duration: 20, SegmentDuration: 4,
		TargetBitrates: []float64{300e3}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pres := manifest.Build(v, manifest.BuildOptions{Protocol: manifest.DASH, Addressing: manifest.SidxRanges})
	plain, err := New(pres)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewWithOptions(pres, Options{ObfuscateManifest: true})
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := plain.Document(pres.ManifestURL())
	eb, _ := enc.Document(pres.ManifestURL())
	if len(pb) != len(eb) {
		t.Fatalf("obfuscation changed length %d → %d", len(pb), len(eb))
	}
	if strings.Contains(string(eb), "<MPD") {
		t.Fatal("obfuscated MPD still sniffable")
	}
	// The sidx stays readable.
	if _, ok := enc.Sidx(pres.Video[0].MediaURL); !ok {
		t.Fatal("sidx missing under obfuscation")
	}
}

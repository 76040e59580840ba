// Package origin implements the server side of a HAS service: it encodes
// the manifest documents for a presentation (HLS playlists, DASH MPD with
// per-track sidx boxes, or a SmoothStreaming manifest) and answers
// document and sidx lookups for the virtual-time simulator.
package origin

import (
	"sync"

	"repro/internal/manifest"
	"repro/internal/manifest/dash"
	"repro/internal/manifest/hls"
	"repro/internal/manifest/sidx"
	"repro/internal/manifest/smooth"
)

// Origin holds a presentation and its encoded wire documents.
type Origin struct {
	// Pres is the presentation being served.
	Pres *manifest.Presentation

	docs      map[string][]byte // URL -> document body
	sidxBytes map[string][]byte // media URL -> encoded sidx box

	// The client view derived from Pres lives here, so it is collected
	// with the origin: a process-wide table keyed by the presentation
	// pointer would outlive every memo generation (DESIGN.md §8).
	viewOnce sync.Once
	view     *manifest.Presentation
}

// New encodes all documents for a presentation.
func New(p *manifest.Presentation) (*Origin, error) {
	return NewWithOptions(p, Options{})
}

// Options tunes origin behaviour.
type Options struct {
	// ObfuscateManifest scrambles the top-level manifest's wire bytes,
	// modelling D3's application-layer-encrypted MPD (§2.3): the player
	// still understands the presentation (it holds the key), but an
	// on-path observer sees only opaque bytes — the sidx boxes remain
	// readable, which is the loophole the paper's analyzer exploits.
	ObfuscateManifest bool
}

// NewWithOptions encodes all documents for a presentation with options.
func NewWithOptions(p *manifest.Presentation, opts Options) (*Origin, error) {
	o := &Origin{
		Pres:      p,
		docs:      map[string][]byte{},
		sidxBytes: map[string][]byte{},
	}
	switch p.Protocol {
	case manifest.HLS:
		o.docs[p.ManifestURL()] = []byte(hls.EncodeMaster(p))
		for _, r := range p.Video {
			o.docs[r.PlaylistURL] = []byte(hls.EncodeMedia(r))
		}
	case manifest.DASH:
		body, err := dash.Encode(p)
		if err != nil {
			return nil, err
		}
		o.docs[p.ManifestURL()] = body
	case manifest.Smooth:
		body, err := smooth.Encode(p)
		if err != nil {
			return nil, err
		}
		o.docs[p.ManifestURL()] = body
	}
	if opts.ObfuscateManifest {
		url := p.ManifestURL()
		o.docs[url] = obfuscate(o.docs[url])
	}
	index := func(r *manifest.Rendition) {
		if r.MediaURL == "" {
			return
		}
		sizes := make([]int64, 0, len(r.Segments))
		durs := make([]float64, 0, len(r.Segments))
		for _, s := range r.Segments {
			sizes = append(sizes, s.Size)
			durs = append(durs, s.Duration)
		}
		o.sidxBytes[r.MediaURL] = sidx.Encode(sidx.FromSegments(sizes, durs, 1000))
	}
	for _, r := range p.Video {
		index(r)
	}
	for _, r := range p.Audio {
		index(r)
	}
	return o, nil
}

// ClientView returns the client-side view of the presentation, hiding
// per-segment sizes when the protocol does not expose them before
// download (plain HLS URLs and SmoothStreaming templates carry no size
// information; §4.2). It is built once — experiments run thousands of
// sessions against a handful of origins — shared by every session of the
// origin, and must not be mutated.
func (o *Origin) ClientView() *manifest.Presentation {
	o.viewOnce.Do(func() { o.view = clientView(o.Pres) })
	return o.view
}

func clientView(p *manifest.Presentation) *manifest.Presentation {
	exposes := p.Addressing == manifest.RangesInManifest || p.Addressing == manifest.SidxRanges
	cp := *p
	strip := func(rs []*manifest.Rendition) []*manifest.Rendition {
		out := make([]*manifest.Rendition, len(rs))
		for i, r := range rs {
			rr := *r
			rr.Segments = append([]manifest.Segment(nil), r.Segments...)
			if !exposes {
				for j := range rr.Segments {
					rr.Segments[j].Size = 0
				}
			}
			out[i] = &rr
		}
		return out
	}
	cp.Video = strip(p.Video)
	cp.Audio = strip(p.Audio)
	return &cp
}

// Document returns the body of a manifest-level document by URL.
func (o *Origin) Document(url string) ([]byte, bool) {
	b, ok := o.docs[url]
	return b, ok
}

// Sidx returns the encoded Segment Index box of a range-addressed media
// file.
func (o *Origin) Sidx(mediaURL string) ([]byte, bool) {
	b, ok := o.sidxBytes[mediaURL]
	return b, ok
}

// obfuscate scrambles document bytes deterministically (a stand-in for
// application-layer encryption; the exact transform is irrelevant — it
// only has to defeat content sniffing).
func obfuscate(body []byte) []byte {
	out := make([]byte, len(body))
	for i, b := range body {
		out[i] = b ^ byte(0xA5+i*7)
	}
	return out
}

// Package origin implements the server side of a HAS service: it encodes
// the manifest documents for a presentation (HLS playlists, DASH MPD with
// per-track sidx boxes, or a SmoothStreaming manifest), answers document
// lookups for the virtual-time simulator, and serves the whole
// presentation — including synthetic media payloads with Range and HEAD
// support — over real HTTP via net/http.
package origin

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

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
	mediaSize map[string]int64  // media URL -> total virtual file size
	segSize   map[string]int64  // segment URL -> size (separate files)

	// Values derived from Pres live here, so they are collected with the
	// origin: a process-wide table keyed by the presentation pointer
	// would outlive every memo generation (DESIGN.md §8).
	viewOnce sync.Once
	view     *manifest.Presentation
	keyOnce  sync.Once
	key      [32]byte
	keyErr   error
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
		mediaSize: map[string]int64{},
		segSize:   map[string]int64{},
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
		if r.MediaURL != "" {
			sizes := make([]int64, 0, len(r.Segments))
			durs := make([]float64, 0, len(r.Segments))
			var total int64
			for _, s := range r.Segments {
				sizes = append(sizes, s.Size)
				durs = append(durs, s.Duration)
				total = s.Offset + s.Length
			}
			box := sidx.FromSegments(sizes, durs, 1000)
			o.sidxBytes[r.MediaURL] = sidx.Encode(box)
			o.mediaSize[r.MediaURL] = total
		}
		for _, s := range r.Segments {
			if s.URL != "" && s.Length == 0 {
				o.segSize[s.URL] = s.Size
			}
		}
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

// ContentKey returns the content hash of the presentation, calling hash
// on first use and keeping its answer. Presentations are immutable once
// built (the modify package clones before editing), so the key never
// changes; the hash is the caller's because the canonical encoder lives
// above this package (expcache.Fingerprint).
func (o *Origin) ContentKey(hash func(*manifest.Presentation) ([32]byte, error)) ([32]byte, error) {
	o.keyOnce.Do(func() { o.key, o.keyErr = hash(o.Pres) })
	return o.key, o.keyErr
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

// ServeHTTP serves the presentation over real HTTP: manifest documents
// verbatim, media as synthetic payloads of the correct size with full
// Range support (http.ServeContent handles Range and HEAD).
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	url := r.URL.Path
	if body, ok := o.docs[url]; ok {
		w.Header().Set("Content-Type", contentTypeFor(url, o.Pres.Protocol))
		http.ServeContent(w, r, "", time.Time{}, strings.NewReader(string(body)))
		return
	}
	if size, ok := o.mediaSize[url]; ok {
		f := &virtualFile{size: size}
		// Splice the real sidx bytes into the virtual file at the
		// rendition's index offset so ranged index fetches decode.
		if sx, ok := o.sidxBytes[url]; ok {
			if rend := o.renditionByMediaURL(url); rend != nil {
				f.patchOff, f.patch = rend.IndexOffset, sx
			}
		}
		w.Header().Set("Content-Type", "video/mp4")
		http.ServeContent(w, r, "", time.Time{}, f)
		return
	}
	if size, ok := o.segSize[url]; ok {
		w.Header().Set("Content-Type", "video/mp2t")
		http.ServeContent(w, r, "", time.Time{}, &virtualFile{size: size})
		return
	}
	http.NotFound(w, r)
}

func (o *Origin) renditionByMediaURL(url string) *manifest.Rendition {
	for _, r := range o.Pres.Video {
		if r.MediaURL == url {
			return r
		}
	}
	for _, r := range o.Pres.Audio {
		if r.MediaURL == url {
			return r
		}
	}
	return nil
}

func contentTypeFor(url string, proto manifest.Protocol) string {
	switch {
	case strings.HasSuffix(url, ".m3u8"):
		return "application/vnd.apple.mpegurl"
	case strings.HasSuffix(url, ".mpd"):
		return "application/dash+xml"
	case proto == manifest.Smooth:
		return "application/vnd.ms-sstr+xml"
	default:
		return "application/octet-stream"
	}
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

// virtualFile is a ReadSeeker over deterministic filler bytes of a fixed
// size, with an optional patched region carrying real bytes (the sidx).
// It lets the origin serve arbitrarily large media without storing it.
type virtualFile struct {
	size     int64
	pos      int64
	patchOff int64
	patch    []byte
}

func (f *virtualFile) Read(p []byte) (int, error) {
	if f.pos >= f.size {
		return 0, io.EOF
	}
	n := len(p)
	if rem := f.size - f.pos; int64(n) > rem {
		n = int(rem)
	}
	for i := 0; i < n; i++ {
		off := f.pos + int64(i)
		if f.patch != nil && off >= f.patchOff && off < f.patchOff+int64(len(f.patch)) {
			p[i] = f.patch[off-f.patchOff]
		} else {
			p[i] = byte(off * 31)
		}
	}
	f.pos += int64(n)
	return n, nil
}

func (f *virtualFile) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = f.pos + offset
	case io.SeekEnd:
		abs = f.size + offset
	default:
		return 0, fmt.Errorf("origin: bad whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("origin: negative seek")
	}
	f.pos = abs
	return abs, nil
}

// Package manifest defines a protocol-neutral model of a HAS media
// presentation — the information a manifest conveys — and builds it from
// generated content. The three wire formats the studied services use are
// implemented in the sub-packages hls (HTTP Live Streaming playlists),
// dash (MPEG-DASH MPD + ISO-BMFF sidx) and smooth (SmoothStreaming), each
// round-tripping to and from this model.
package manifest

import (
	"fmt"

	"repro/internal/media"
)

// Protocol identifies the HAS protocol family a service uses.
type Protocol int

const (
	// HLS is Apple HTTP Live Streaming (services H1–H6).
	HLS Protocol = iota
	// DASH is MPEG Dynamic Adaptive Streaming over HTTP (D1–D4).
	DASH
	// Smooth is Microsoft SmoothStreaming (S1–S2).
	Smooth
)

// String returns "HLS", "DASH" or "Smooth".
func (p Protocol) String() string {
	switch p {
	case HLS:
		return "HLS"
	case DASH:
		return "DASH"
	default:
		return "Smooth"
	}
}

// Addressing selects how segments are addressed on the wire.
type Addressing int

const (
	// SeparateFiles gives each segment its own URL (HLS services; none
	// of the studied HLS services used byte ranges).
	SeparateFiles Addressing = iota
	// RangesInManifest stores each segment as a byte range of one media
	// file, with the ranges listed directly in the MPD (D1's design).
	RangesInManifest
	// SidxRanges stores segments as byte ranges of one media file and
	// publishes the ranges in the file's Segment Index box, referenced
	// from the MPD (D2–D4's design). The sidx also reveals per-segment
	// sizes, which §4.2 argues the adaptation logic should use.
	SidxRanges
	// TemplateURLs addresses segments by substituting bitrate and start
	// time into a URL template (SmoothStreaming).
	TemplateURLs
	// TemplateNumber addresses segments with a DASH SegmentTemplate
	// using $Number$ substitution — the most common deployed DASH mode.
	// Like plain HLS it exposes no per-segment sizes to the client.
	TemplateNumber
)

// Segment describes one addressable media segment.
type Segment struct {
	// URL is the segment's own URL (SeparateFiles), or "" when the
	// segment is a byte range of the rendition's MediaURL.
	URL string
	// Offset and Length give the byte range within MediaURL; Length is 0
	// for SeparateFiles addressing.
	Offset, Length int64
	// Duration is the segment's media duration in seconds.
	Duration float64
	// Size is the segment's actual size in bytes. It is always known to
	// the origin; whether the client can learn it before download
	// depends on the addressing mode (ranges and sidx expose it, plain
	// HLS does not).
	Size int64
	// Start is the segment's media start time in seconds.
	Start float64
}

// Rendition is one track as described by a manifest.
type Rendition struct {
	// ID is the rung index, 0 = lowest.
	ID int
	// Type is media.TypeVideo or media.TypeAudio.
	Type media.MediaType
	// DeclaredBitrate is the advertised bandwidth requirement in bits/s.
	DeclaredBitrate float64
	// AverageBitrate optionally advertises the mean actual bitrate
	// (HLS AVERAGE-BANDWIDTH); 0 when absent.
	AverageBitrate float64
	// Width and Height give the video resolution (0 for audio).
	Width, Height int
	// SegmentDuration is the nominal segment duration in seconds.
	SegmentDuration float64
	// PlaylistURL is the rendition-level document URL (HLS media
	// playlist); "" for single-manifest protocols.
	PlaylistURL string
	// MediaURL is the single media file carrying all segments when
	// addressing is range-based.
	MediaURL string
	// IndexOffset and IndexLength locate the sidx box within MediaURL
	// (SidxRanges addressing).
	IndexOffset, IndexLength int64
	// Segments lists the rendition's segments in order.
	Segments []Segment
}

// Presentation is the protocol-neutral content description.
type Presentation struct {
	// Name identifies the presentation (first path element of URLs).
	Name string
	// Protocol is the wire format the origin publishes.
	Protocol Protocol
	// Addressing is the segment addressing mode.
	Addressing Addressing
	// Duration is the media duration in seconds.
	Duration float64
	// Video holds the video ladder ascending by quality.
	Video []*Rendition
	// Audio holds separate audio renditions (empty when multiplexed).
	Audio []*Rendition
}

// ManifestURL returns the URL of the top-level manifest document.
func (p *Presentation) ManifestURL() string {
	switch p.Protocol {
	case HLS:
		return "/" + p.Name + "/master.m3u8"
	case DASH:
		return "/" + p.Name + "/manifest.mpd"
	default:
		return "/" + p.Name + "/Manifest"
	}
}

// BuildOptions configures Build.
type BuildOptions struct {
	// Protocol selects the wire format.
	Protocol Protocol
	// Addressing selects segment addressing; zero value picks the
	// protocol's conventional mode (HLS/Smooth ignore it).
	Addressing Addressing
	// DeclareAverage additionally publishes AVERAGE-BANDWIDTH (HLS only;
	// newer HLS versions support it, §4.2).
	DeclareAverage bool
}

// Build derives the manifest-level description of a generated video.
func Build(v *media.Video, opts BuildOptions) *Presentation {
	addr := opts.Addressing
	switch opts.Protocol {
	case HLS:
		addr = SeparateFiles
	case Smooth:
		addr = TemplateURLs
	case DASH:
		if addr == SeparateFiles {
			addr = SidxRanges
		}
	}
	p := &Presentation{
		Name:       v.Name,
		Protocol:   opts.Protocol,
		Addressing: addr,
		Duration:   v.Duration,
	}
	for _, t := range v.Tracks {
		p.Video = append(p.Video, buildRendition(p, v, t, opts))
	}
	for _, t := range v.AudioTracks {
		p.Audio = append(p.Audio, buildRendition(p, v, t, opts))
	}
	return p
}

func buildRendition(p *Presentation, v *media.Video, t *media.Track, opts BuildOptions) *Rendition {
	r := &Rendition{
		ID:              t.ID,
		Type:            t.Type,
		DeclaredBitrate: t.DeclaredBitrate,
		Width:           t.Width,
		Height:          t.Height,
		SegmentDuration: t.SegmentDuration,
	}
	if opts.DeclareAverage {
		r.AverageBitrate = t.AverageBitrate()
	}
	kind := t.Type.String()
	segLen := func(i int) float64 {
		if t.Type == media.TypeAudio {
			return v.AudioSegmentLength(i)
		}
		return v.SegmentLength(i)
	}
	n := len(t.SegmentBytes)
	r.Segments = make([]Segment, n)
	switch p.Addressing {
	case SeparateFiles:
		r.PlaylistURL = fmt.Sprintf("/%s/%s_track%d.m3u8", p.Name, kind, t.ID)
		for i := 0; i < n; i++ {
			r.Segments[i] = Segment{
				URL:      fmt.Sprintf("/%s/%s_track%d/seg%05d.ts", p.Name, kind, t.ID, i),
				Duration: segLen(i),
				Size:     int64(t.SegmentBytes[i] + 0.5),
				Start:    float64(i) * t.SegmentDuration,
			}
		}
	case RangesInManifest, SidxRanges:
		r.MediaURL = fmt.Sprintf("/%s/%s_track%d.mp4", p.Name, kind, t.ID)
		// Reserve a small header region for ftyp/moov plus the sidx.
		const headerBytes = 1024
		r.IndexOffset = 128
		r.IndexLength = headerBytes - r.IndexOffset
		off := int64(headerBytes)
		for i := 0; i < n; i++ {
			size := int64(t.SegmentBytes[i] + 0.5)
			r.Segments[i] = Segment{
				Offset:   off,
				Length:   size,
				Duration: segLen(i),
				Size:     size,
				Start:    float64(i) * t.SegmentDuration,
			}
			off += size
		}
	case TemplateURLs:
		for i := 0; i < n; i++ {
			start := float64(i) * t.SegmentDuration
			r.Segments[i] = Segment{
				URL:      SmoothFragmentURL(p.Name, kind, t.DeclaredBitrate, start),
				Duration: segLen(i),
				Size:     int64(t.SegmentBytes[i] + 0.5),
				Start:    start,
			}
		}
	case TemplateNumber:
		for i := 0; i < n; i++ {
			r.Segments[i] = Segment{
				URL:      NumberTemplateURL(p.Name, kind, t.ID, i+1),
				Duration: segLen(i),
				Size:     int64(t.SegmentBytes[i] + 0.5),
				Start:    float64(i) * t.SegmentDuration,
			}
		}
	}
	return r
}

// NumberTemplateURL renders the URL a DASH $Number$ SegmentTemplate
// expands to for the given media kind, track and 1-based number.
func NumberTemplateURL(name, kind string, track, number int) string {
	return fmt.Sprintf("/%s/%s_track%d/seg-%d.m4s", name, kind, track, number)
}

// SmoothTimescale is the SmoothStreaming 100 ns time unit per second.
const SmoothTimescale = 1e7

// SmoothFragmentURL renders the conventional SmoothStreaming fragment URL
// for a presentation, media kind ("video"/"audio"), declared bitrate and
// media start time in seconds.
func SmoothFragmentURL(name, kind string, bitrate, start float64) string {
	return fmt.Sprintf("/%s/QualityLevels(%d)/Fragments(%s=%d)", name, int64(bitrate), kind, int64(start*SmoothTimescale+0.5))
}

// Package dash encodes and parses a practical subset of the MPEG-DASH
// Media Presentation Description (ISO/IEC 23009-1), the wire format of
// services D1–D4. Two addressing styles are supported, matching the
// paper's observations (§2.3): byte ranges listed directly in the MPD
// (D1) and SegmentBase+sidx, where the MPD points at each track's Segment
// Index box (D2–D4).
package dash

import (
	"encoding/xml"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/manifest"
	"repro/internal/manifest/sidx"
	"repro/internal/media"
)

// xml document model

type xmlMPD struct {
	XMLName                   xml.Name    `xml:"MPD"`
	Xmlns                     string      `xml:"xmlns,attr"`
	Type                      string      `xml:"type,attr"`
	Profiles                  string      `xml:"profiles,attr"`
	MediaPresentationDuration string      `xml:"mediaPresentationDuration,attr"`
	MinBufferTime             string      `xml:"minBufferTime,attr"`
	Periods                   []xmlPeriod `xml:"Period"`
}

type xmlPeriod struct {
	AdaptationSets []xmlAdaptationSet `xml:"AdaptationSet"`
}

type xmlAdaptationSet struct {
	ContentType     string              `xml:"contentType,attr"`
	MimeType        string              `xml:"mimeType,attr,omitempty"`
	Representations []xmlRepresentation `xml:"Representation"`
}

type xmlRepresentation struct {
	ID              string              `xml:"id,attr"`
	Bandwidth       int64               `xml:"bandwidth,attr"`
	Width           int                 `xml:"width,attr,omitempty"`
	Height          int                 `xml:"height,attr,omitempty"`
	BaseURL         string              `xml:"BaseURL,omitempty"`
	SegmentBase     *xmlSegmentBase     `xml:"SegmentBase"`
	SegmentList     *xmlSegmentList     `xml:"SegmentList"`
	SegmentTemplate *xmlSegmentTemplate `xml:"SegmentTemplate"`
}

type xmlSegmentTemplate struct {
	Media       string `xml:"media,attr"`
	Timescale   uint32 `xml:"timescale,attr"`
	Duration    uint64 `xml:"duration,attr"`
	StartNumber int    `xml:"startNumber,attr"`
}

type xmlSegmentBase struct {
	IndexRange string `xml:"indexRange,attr"`
}

type xmlSegmentList struct {
	Timescale   uint32          `xml:"timescale,attr"`
	Duration    uint64          `xml:"duration,attr"`
	SegmentURLs []xmlSegmentURL `xml:"SegmentURL"`
}

type xmlSegmentURL struct {
	Media      string `xml:"media,attr"`
	MediaRange string `xml:"mediaRange,attr"`
}

// Encode renders the MPD document for a presentation whose addressing is
// RangesInManifest or SidxRanges.
func Encode(p *manifest.Presentation) ([]byte, error) {
	doc := xmlMPD{
		Xmlns:                     "urn:mpeg:dash:schema:mpd:2011",
		Type:                      "static",
		Profiles:                  "urn:mpeg:dash:profile:isoff-on-demand:2011",
		MediaPresentationDuration: formatDuration(p.Duration),
		MinBufferTime:             "PT2S",
	}
	var period xmlPeriod
	addSet := func(kind string, rs []*manifest.Rendition) error {
		if len(rs) == 0 {
			return nil
		}
		set := xmlAdaptationSet{ContentType: kind, MimeType: kind + "/mp4"}
		for _, r := range rs {
			rep := xmlRepresentation{
				ID:        fmt.Sprintf("%s%d", kind[:1], r.ID),
				Bandwidth: int64(r.DeclaredBitrate),
				Width:     r.Width,
				Height:    r.Height,
			}
			switch p.Addressing {
			case manifest.SidxRanges:
				rep.BaseURL = r.MediaURL
				rep.SegmentBase = &xmlSegmentBase{
					IndexRange: fmt.Sprintf("%d-%d", r.IndexOffset, r.IndexOffset+r.IndexLength-1),
				}
			case manifest.RangesInManifest:
				const ts = 1000
				sl := &xmlSegmentList{Timescale: ts, Duration: uint64(r.SegmentDuration*ts + 0.5)}
				for _, s := range r.Segments {
					sl.SegmentURLs = append(sl.SegmentURLs, xmlSegmentURL{
						Media:      r.MediaURL,
						MediaRange: fmt.Sprintf("%d-%d", s.Offset, s.Offset+s.Length-1),
					})
				}
				rep.SegmentList = sl
			case manifest.TemplateNumber:
				const ts = 1000
				rep.SegmentTemplate = &xmlSegmentTemplate{
					Media:       manifest.NumberTemplateURL(p.Name, kind, r.ID, 0),
					Timescale:   ts,
					Duration:    uint64(r.SegmentDuration*ts + 0.5),
					StartNumber: 1,
				}
				// Encode the template with the $Number$ placeholder.
				rep.SegmentTemplate.Media = strings.Replace(rep.SegmentTemplate.Media, "seg-0.m4s", "seg-$Number$.m4s", 1)
			default:
				return fmt.Errorf("dash: unsupported addressing %v", p.Addressing)
			}
			set.Representations = append(set.Representations, rep)
		}
		period.AdaptationSets = append(period.AdaptationSets, set)
		return nil
	}
	if err := addSet("video", p.Video); err != nil {
		return nil, err
	}
	if err := addSet("audio", p.Audio); err != nil {
		return nil, err
	}
	doc.Periods = []xmlPeriod{period}
	out, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), out...), nil
}

// Decode reconstructs a Presentation from an MPD document. For
// SegmentBase addressing the caller supplies the sidx box bytes of each
// representation keyed by its BaseURL (the traffic analyzer collects them
// from the ranged requests it observes).
func Decode(name string, mpd []byte, sidxBodies map[string][]byte) (*manifest.Presentation, error) {
	var doc xmlMPD
	if err := xml.Unmarshal(mpd, &doc); err != nil {
		return nil, fmt.Errorf("dash: %w", err)
	}
	if len(doc.Periods) == 0 {
		return nil, fmt.Errorf("dash: no Period")
	}
	dur, err := parseDuration(doc.MediaPresentationDuration)
	if err != nil {
		return nil, err
	}
	p := &manifest.Presentation{Name: name, Protocol: manifest.DASH, Duration: dur}
	for _, set := range doc.Periods[0].AdaptationSets {
		kind := media.TypeVideo
		if strings.Contains(set.ContentType, "audio") || strings.Contains(set.MimeType, "audio") {
			kind = media.TypeAudio
		}
		for i, rep := range set.Representations {
			r := &manifest.Rendition{
				ID:              i,
				Type:            kind,
				DeclaredBitrate: float64(rep.Bandwidth),
				Width:           rep.Width,
				Height:          rep.Height,
				MediaURL:        strings.TrimSpace(rep.BaseURL),
			}
			switch {
			case rep.SegmentList != nil:
				p.Addressing = manifest.RangesInManifest
				ts := rep.SegmentList.Timescale
				if ts == 0 {
					ts = 1
				}
				nominal := float64(rep.SegmentList.Duration) / float64(ts)
				r.SegmentDuration = nominal
				start := 0.0
				for _, su := range rep.SegmentList.SegmentURLs {
					off, end, err := parseRange(su.MediaRange)
					if err != nil {
						return nil, err
					}
					if r.MediaURL == "" {
						r.MediaURL = su.Media
					}
					d := math.Min(nominal, dur-start)
					r.Segments = append(r.Segments, manifest.Segment{
						Offset: off, Length: end - off + 1,
						Size: end - off + 1, Duration: d, Start: start,
					})
					start += nominal
				}
			case rep.SegmentTemplate != nil:
				p.Addressing = manifest.TemplateNumber
				st := rep.SegmentTemplate
				ts := st.Timescale
				if ts == 0 {
					ts = 1
				}
				nominal := float64(st.Duration) / float64(ts)
				r.SegmentDuration = nominal
				startNum := st.StartNumber
				if startNum == 0 {
					startNum = 1
				}
				count := int(math.Ceil(dur/nominal - 1e-9))
				start := 0.0
				for n := 0; n < count; n++ {
					d := math.Min(nominal, dur-start)
					r.Segments = append(r.Segments, manifest.Segment{
						URL:      strings.Replace(st.Media, "$Number$", strconv.Itoa(startNum+n), 1),
						Duration: d,
						Start:    start,
					})
					start += nominal
				}
			case rep.SegmentBase != nil:
				p.Addressing = manifest.SidxRanges
				io, ie, err := parseRange(rep.SegmentBase.IndexRange)
				if err != nil {
					return nil, err
				}
				r.IndexOffset, r.IndexLength = io, ie-io+1
				body, ok := sidxBodies[r.MediaURL]
				if !ok {
					return nil, fmt.Errorf("dash: missing sidx body for %q", r.MediaURL)
				}
				box, err := sidx.Decode(body)
				if err != nil {
					return nil, fmt.Errorf("dash: %s: %w", r.MediaURL, err)
				}
				off := ie + 1 + int64(box.FirstOffset)
				start := 0.0
				for _, ref := range box.References {
					d := float64(ref.SubsegmentDuration) / float64(box.Timescale)
					r.Segments = append(r.Segments, manifest.Segment{
						Offset: off, Length: int64(ref.ReferencedSize),
						Size: int64(ref.ReferencedSize), Duration: d, Start: start,
					})
					if d > r.SegmentDuration {
						r.SegmentDuration = d
					}
					off += int64(ref.ReferencedSize)
					start += d
				}
			default:
				return nil, fmt.Errorf("dash: representation %q has no addressing", rep.ID)
			}
			if kind == media.TypeAudio {
				p.Audio = append(p.Audio, r)
			} else {
				p.Video = append(p.Video, r)
			}
		}
	}
	renumber(p.Video)
	renumber(p.Audio)
	return p, nil
}

func renumber(rs []*manifest.Rendition) {
	for i, r := range rs {
		r.ID = i
	}
}

func parseRange(s string) (first, last int64, err error) {
	i := strings.IndexByte(s, '-')
	if i < 0 {
		return 0, 0, fmt.Errorf("dash: bad byte range %q", s)
	}
	first, err = strconv.ParseInt(s[:i], 10, 64)
	if err == nil {
		last, err = strconv.ParseInt(s[i+1:], 10, 64)
	}
	if err != nil || last < first {
		return 0, 0, fmt.Errorf("dash: bad byte range %q", s)
	}
	return first, last, nil
}

func formatDuration(sec float64) string {
	return fmt.Sprintf("PT%gS", sec)
}

var durRe = regexp.MustCompile(`^PT(?:(\d+(?:\.\d+)?)H)?(?:(\d+(?:\.\d+)?)M)?(?:(\d+(?:\.\d+)?)S)?$`)

func parseDuration(s string) (float64, error) {
	m := durRe.FindStringSubmatch(strings.TrimSpace(s))
	if m == nil {
		return 0, fmt.Errorf("dash: bad duration %q", s)
	}
	total := 0.0
	for i, mult := range []float64{3600, 60, 1} {
		if m[i+1] != "" {
			f, err := strconv.ParseFloat(m[i+1], 64)
			if err != nil {
				return 0, fmt.Errorf("dash: bad duration %q", s)
			}
			total += f * mult
		}
	}
	return total, nil
}

// Package hls encodes and parses HTTP Live Streaming playlists (RFC 8216
// subset): a Master Playlist listing the variant streams and one Media
// Playlist per track listing segment URIs and durations. This is the wire
// format of services H1–H6; the traffic analyzer parses these documents
// out of the HTTP flow to map requests to segments (§2.3).
package hls

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/manifest"
)

// EncodeMaster renders the Master Playlist for a presentation.
func EncodeMaster(p *manifest.Presentation) string {
	var b strings.Builder
	b.WriteString("#EXTM3U\n#EXT-X-VERSION:3\n")
	for _, r := range p.Video {
		b.WriteString("#EXT-X-STREAM-INF:BANDWIDTH=")
		b.WriteString(strconv.FormatInt(int64(r.DeclaredBitrate), 10))
		if r.AverageBitrate > 0 {
			fmt.Fprintf(&b, ",AVERAGE-BANDWIDTH=%d", int64(r.AverageBitrate))
		}
		if r.Width > 0 {
			fmt.Fprintf(&b, ",RESOLUTION=%dx%d", r.Width, r.Height)
		}
		b.WriteString("\n")
		b.WriteString(r.PlaylistURL)
		b.WriteString("\n")
	}
	return b.String()
}

// EncodeMedia renders the VOD Media Playlist for one rendition.
func EncodeMedia(r *manifest.Rendition) string {
	var b strings.Builder
	b.WriteString("#EXTM3U\n#EXT-X-VERSION:3\n")
	fmt.Fprintf(&b, "#EXT-X-TARGETDURATION:%d\n", int64(r.SegmentDuration+0.999))
	b.WriteString("#EXT-X-MEDIA-SEQUENCE:0\n#EXT-X-PLAYLIST-TYPE:VOD\n")
	for _, s := range r.Segments {
		fmt.Fprintf(&b, "#EXTINF:%.5f,\n", s.Duration)
		if s.Length > 0 {
			fmt.Fprintf(&b, "#EXT-X-BYTERANGE:%d@%d\n", s.Length, s.Offset)
		}
		b.WriteString(s.URL)
		b.WriteString("\n")
	}
	b.WriteString("#EXT-X-ENDLIST\n")
	return b.String()
}

// Variant is one EXT-X-STREAM-INF entry of a parsed Master Playlist.
type Variant struct {
	// Bandwidth is the declared (peak) bitrate in bits/s.
	Bandwidth float64
	// AverageBandwidth is the optional average bitrate, 0 when absent.
	AverageBandwidth float64
	// Width and Height come from RESOLUTION (0 when absent).
	Width, Height int
	// URI is the media playlist URL.
	URI string
}

// ParseMaster parses a Master Playlist. Variants are returned in file
// order (services typically list them ascending by bandwidth, but the
// parser does not assume it).
func ParseMaster(text string) ([]Variant, error) {
	if !strings.HasPrefix(strings.TrimSpace(text), "#EXTM3U") {
		return nil, fmt.Errorf("hls: missing #EXTM3U header")
	}
	var out []Variant
	var pending *Variant
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "#EXT-X-STREAM-INF:"):
			v := Variant{}
			attrs := parseAttrs(strings.TrimPrefix(line, "#EXT-X-STREAM-INF:"))
			if bw, ok := attrs["BANDWIDTH"]; ok {
				f, err := strconv.ParseFloat(bw, 64)
				if err != nil {
					return nil, fmt.Errorf("hls: bad BANDWIDTH %q", bw)
				}
				v.Bandwidth = f
			} else {
				return nil, fmt.Errorf("hls: EXT-X-STREAM-INF without BANDWIDTH")
			}
			if ab, ok := attrs["AVERAGE-BANDWIDTH"]; ok {
				f, err := strconv.ParseFloat(ab, 64)
				if err != nil {
					return nil, fmt.Errorf("hls: bad AVERAGE-BANDWIDTH %q", ab)
				}
				v.AverageBandwidth = f
			}
			if res, ok := attrs["RESOLUTION"]; ok {
				if _, err := fmt.Sscanf(res, "%dx%d", &v.Width, &v.Height); err != nil {
					return nil, fmt.Errorf("hls: bad RESOLUTION %q", res)
				}
			}
			pending = &v
		case line == "" || strings.HasPrefix(line, "#"):
			// other tags ignored
		default:
			if pending != nil {
				pending.URI = line
				out = append(out, *pending)
				pending = nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("hls: no variants in master playlist")
	}
	return out, nil
}

// MediaSegment is one entry of a parsed Media Playlist.
type MediaSegment struct {
	// URI is the segment URL.
	URI string
	// Duration is the EXTINF duration in seconds.
	Duration float64
	// Offset/Length give the EXT-X-BYTERANGE; Length is 0 when absent.
	Offset, Length int64
}

// ParseMedia parses a VOD Media Playlist into its segment list. The
// EXT-X-MEDIA-SEQUENCE and EXT-X-TARGETDURATION values are not kept, but
// a malformed one is still an error.
func ParseMedia(text string) ([]MediaSegment, error) {
	if !strings.HasPrefix(strings.TrimSpace(text), "#EXTM3U") {
		return nil, fmt.Errorf("hls: missing #EXTM3U header")
	}
	var out []MediaSegment
	var dur float64
	var haveDur bool
	var off, length int64
	var haveRange bool
	nextOffset := int64(0)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "#EXT-X-MEDIA-SEQUENCE:"):
			if _, err := strconv.Atoi(strings.TrimPrefix(line, "#EXT-X-MEDIA-SEQUENCE:")); err != nil {
				return nil, fmt.Errorf("hls: bad MEDIA-SEQUENCE %q", line)
			}
		case strings.HasPrefix(line, "#EXT-X-TARGETDURATION:"):
			if _, err := strconv.ParseFloat(strings.TrimPrefix(line, "#EXT-X-TARGETDURATION:"), 64); err != nil {
				return nil, fmt.Errorf("hls: bad TARGETDURATION %q", line)
			}
		case strings.HasPrefix(line, "#EXTINF:"):
			val := strings.TrimPrefix(line, "#EXTINF:")
			if i := strings.IndexByte(val, ','); i >= 0 {
				val = val[:i]
			}
			f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return nil, fmt.Errorf("hls: bad EXTINF %q", line)
			}
			dur, haveDur = f, true
		case strings.HasPrefix(line, "#EXT-X-BYTERANGE:"):
			val := strings.TrimPrefix(line, "#EXT-X-BYTERANGE:")
			var err error
			if i := strings.IndexByte(val, '@'); i >= 0 {
				length, err = strconv.ParseInt(val[:i], 10, 64)
				if err == nil {
					off, err = strconv.ParseInt(val[i+1:], 10, 64)
				}
			} else {
				length, err = strconv.ParseInt(val, 10, 64)
				off = nextOffset
			}
			if err != nil {
				return nil, fmt.Errorf("hls: bad BYTERANGE %q", line)
			}
			haveRange = true
		case line == "" || strings.HasPrefix(line, "#"):
			// other tags ignored
		default:
			if !haveDur {
				return nil, fmt.Errorf("hls: segment %q without EXTINF", line)
			}
			seg := MediaSegment{URI: line, Duration: dur}
			if haveRange {
				seg.Offset, seg.Length = off, length
				nextOffset = off + length
			}
			out = append(out, seg)
			haveDur, haveRange = false, false
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseAttrs splits an attribute list "A=1,B="x,y",C=2" respecting quotes.
func parseAttrs(s string) map[string]string {
	out := map[string]string{}
	var key strings.Builder
	var val strings.Builder
	inVal, inQuote := false, false
	flush := func() {
		if key.Len() > 0 {
			out[strings.TrimSpace(key.String())] = strings.Trim(val.String(), `"`)
		}
		key.Reset()
		val.Reset()
		inVal = false
	}
	for _, c := range s {
		switch {
		case c == '"':
			inQuote = !inQuote
			val.WriteRune(c)
		case c == '=' && !inVal:
			inVal = true
		case c == ',' && !inQuote:
			flush()
		case inVal:
			val.WriteRune(c)
		default:
			key.WriteRune(c)
		}
	}
	flush()
	return out
}

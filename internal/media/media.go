// Package media models encoded adaptive-streaming content: videos split
// into tracks (quality levels) and segments, with CBR or VBR encoding and a
// configurable policy for the bitrate a service declares in its manifest.
//
// Units follow the paper's conventions: bitrates are bits per second,
// segment sizes are bytes, durations and times are float64 seconds.
//
// The paper streams real commercial content (Netflix movies, the Sintel
// test video, the BBC Testcard stream). We substitute a synthetic content
// model: per-segment "scene complexity" drives per-segment actual bitrates,
// which is the only property of the content the paper's experiments depend
// on (declared vs actual bitrate, segment sizes and durations).
package media

import (
	"fmt"
	"math"
	"math/rand"
)

// MediaType distinguishes video from audio content.
type MediaType int

const (
	TypeVideo MediaType = iota
	TypeAudio
)

// String returns "video" or "audio".
func (t MediaType) String() string {
	if t == TypeAudio {
		return "audio"
	}
	return "video"
}

// Encoding selects between constant- and variable-bitrate encoding.
type Encoding int

const (
	// CBR encodes every segment of a track at (nearly) the same bitrate.
	CBR Encoding = iota
	// VBR encodes segments at different bitrates based on scene
	// complexity; actual segment bitrates within a track can differ by a
	// factor of 2 or more (§2.1 of the paper).
	VBR
)

// String returns "CBR" or "VBR".
func (e Encoding) String() string {
	if e == VBR {
		return "VBR"
	}
	return "CBR"
}

// DeclaredPolicy determines how a service sets the declared bitrate of each
// track in its manifest relative to the track's actual segment bitrates.
type DeclaredPolicy int

const (
	// DeclarePeak sets the declared bitrate near the peak actual segment
	// bitrate of the track (the common practice, and what HLS requires).
	DeclarePeak DeclaredPolicy = iota
	// DeclareAverage sets the declared bitrate near the average actual
	// bitrate (what S1 and S2 do per Figure 5).
	DeclareAverage
)

// Track is one quality level of a presentation. All tracks of a video
// describe the same content at different quality.
type Track struct {
	// ID is the track's position in the ladder, 0 = lowest quality.
	ID int
	// Type is Video or Audio.
	Type MediaType
	// TargetBitrate is the encoder's average target in bits/s. The mean
	// actual segment bitrate equals the target (up to rounding).
	TargetBitrate float64
	// DeclaredBitrate is the bitrate advertised in the manifest.
	DeclaredBitrate float64
	// Width and Height describe the encoded resolution (video only).
	Width, Height int
	// SegmentBytes holds the actual size in bytes of every segment.
	SegmentBytes []float64
	// SegmentDurations holds the true duration of every segment (the
	// last one may be shorter than the nominal duration).
	SegmentDurations []float64
	// SegmentDuration is the nominal duration of each segment.
	SegmentDuration float64
}

// AverageBitrate returns the mean actual bitrate of the track, weighted by
// segment duration.
func (t *Track) AverageBitrate() float64 {
	bytes, dur := 0.0, 0.0
	for i, b := range t.SegmentBytes {
		bytes += b
		dur += t.segDur(i)
	}
	if dur == 0 {
		return 0
	}
	return bytes * 8 / dur
}

// ActualBitrate returns the actual bitrate of segment i.
func (t *Track) ActualBitrate(i int) float64 {
	return t.SegmentBytes[i] * 8 / t.segDur(i)
}

func (t *Track) segDur(i int) float64 {
	if i < len(t.SegmentDurations) {
		return t.SegmentDurations[i]
	}
	return t.SegmentDuration
}

// Video is a complete media presentation: a ladder of video tracks,
// optionally separate audio tracks, and per-segment metadata.
type Video struct {
	// Name identifies the presentation (used in URLs).
	Name string
	// Duration is the total media duration in seconds.
	Duration float64
	// SegmentDuration is the nominal video segment duration in seconds.
	SegmentDuration float64
	// AudioSegmentDuration is the nominal audio segment duration; zero if
	// there is no separate audio.
	AudioSegmentDuration float64
	// Encoding is CBR or VBR.
	Encoding Encoding
	// DeclaredPolicy records how declared bitrates were derived.
	DeclaredPolicy DeclaredPolicy
	// Complexity holds the per-video-segment scene complexity factors
	// (mean 1) that produced the VBR sizes.
	Complexity []float64
	// Tracks is the video ladder ordered by ascending quality.
	Tracks []*Track
	// AudioTracks holds separate audio tracks (usually one); empty when
	// audio is multiplexed into the video segments.
	AudioTracks []*Track
}

// SegmentCount returns the number of video segments.
func (v *Video) SegmentCount() int { return segmentCount(v.Duration, v.SegmentDuration) }

// AudioSegmentCount returns the number of audio segments, or 0 when audio
// is multiplexed.
func (v *Video) AudioSegmentCount() int {
	if v.AudioSegmentDuration == 0 {
		return 0
	}
	return segmentCount(v.Duration, v.AudioSegmentDuration)
}

// SegmentLength returns the duration of video segment i (the last segment
// may be shorter than the nominal segment duration).
func (v *Video) SegmentLength(i int) float64 {
	return segmentLength(v.Duration, v.SegmentDuration, i)
}

// AudioSegmentLength returns the duration of audio segment i.
func (v *Video) AudioSegmentLength(i int) float64 {
	return segmentLength(v.Duration, v.AudioSegmentDuration, i)
}

// HighestTrack returns the top of the ladder.
func (v *Video) HighestTrack() *Track { return v.Tracks[len(v.Tracks)-1] }

func segmentCount(total, seg float64) int {
	if seg <= 0 || total <= 0 {
		return 0
	}
	return int(math.Ceil(total/seg - 1e-9))
}

func segmentLength(total, seg float64, i int) float64 {
	start := float64(i) * seg
	if start+seg > total {
		return total - start
	}
	return seg
}

// Config describes a presentation to generate with Generate.
type Config struct {
	// Name identifies the presentation.
	Name string
	// Duration is the media duration in seconds (e.g. 1800 for a show).
	Duration float64
	// SegmentDuration is the nominal video segment duration in seconds.
	SegmentDuration float64
	// TargetBitrates is the encoder ladder (average actual bitrates,
	// bits/s) in ascending order.
	TargetBitrates []float64
	// Encoding selects CBR or VBR.
	Encoding Encoding
	// VBRSpread is the approximate peak/average actual bitrate ratio for
	// VBR tracks; 2 reproduces D1/D2 ("the peak actual bitrate of D1 is
	// twice the average"). Ignored for CBR. Defaults to 2 when zero.
	VBRSpread float64
	// DeclaredPolicy picks how declared bitrates relate to actual ones.
	// DeclarePeak sets declared = VBRSpread * target (the neighbourhood
	// of the peak); DeclareAverage sets declared = target.
	DeclaredPolicy DeclaredPolicy
	// SeparateAudio adds a separate audio track (DASH/Smooth services).
	SeparateAudio bool
	// AudioBitrate is the audio target bitrate; defaults to 96 kbit/s.
	AudioBitrate float64
	// AudioSegmentDuration defaults to SegmentDuration.
	AudioSegmentDuration float64
	// Seed makes generation deterministic.
	Seed int64
}

// resolutionFor maps a video bitrate to a conventional resolution rung so
// experiments can speak of "tracks below 480p" like Figures 11 and 13.
func resolutionFor(bps float64) (w, h int) {
	switch {
	case bps < 300e3:
		return 320, 180
	case bps < 500e3:
		return 426, 240
	case bps < 900e3:
		return 640, 360
	case bps < 1.6e6:
		return 854, 480
	case bps < 3.0e6:
		return 1280, 720
	default:
		return 1920, 1080
	}
}

// Generate builds a deterministic synthetic presentation from cfg.
//
// VBR sizing: a per-segment complexity series c_i (mean 1) is drawn from a
// smoothed lognormal process shared by all tracks (scene complexity is a
// property of the content, so actual bitrates correlate across tracks, as
// in real encoders). Segment sizes are target*duration*c_i/8 bytes. The
// series is scaled so that max c_i ≈ VBRSpread, matching the paper's
// observation that peak ≈ 2× average for D1.
func Generate(cfg Config) (*Video, error) {
	if cfg.Duration <= 0 || cfg.SegmentDuration <= 0 {
		return nil, fmt.Errorf("media: non-positive duration (%v) or segment duration (%v)", cfg.Duration, cfg.SegmentDuration)
	}
	if len(cfg.TargetBitrates) == 0 {
		return nil, fmt.Errorf("media: empty ladder")
	}
	for i := 1; i < len(cfg.TargetBitrates); i++ {
		if cfg.TargetBitrates[i] <= cfg.TargetBitrates[i-1] {
			return nil, fmt.Errorf("media: ladder not ascending at rung %d", i)
		}
	}
	spread := cfg.VBRSpread
	if spread <= 1 {
		spread = 2
	}
	v := &Video{
		Name:            cfg.Name,
		Duration:        cfg.Duration,
		SegmentDuration: cfg.SegmentDuration,
		Encoding:        cfg.Encoding,
		DeclaredPolicy:  cfg.DeclaredPolicy,
	}
	n := v.SegmentCount()
	v.Complexity = complexitySeries(n, cfg.Encoding, spread, cfg.Seed)

	for id, target := range cfg.TargetBitrates {
		declared := target
		if cfg.DeclaredPolicy == DeclarePeak && cfg.Encoding == VBR {
			declared = target * spread
		}
		w, h := resolutionFor(declared)
		tr := &Track{
			ID:               id,
			Type:             TypeVideo,
			TargetBitrate:    target,
			DeclaredBitrate:  declared,
			Width:            w,
			Height:           h,
			SegmentDuration:  cfg.SegmentDuration,
			SegmentBytes:     make([]float64, n),
			SegmentDurations: make([]float64, n),
		}
		for i := 0; i < n; i++ {
			dur := v.SegmentLength(i)
			tr.SegmentDurations[i] = dur
			tr.SegmentBytes[i] = target * dur * v.Complexity[i] / 8
		}
		v.Tracks = append(v.Tracks, tr)
	}

	if cfg.SeparateAudio {
		ab := cfg.AudioBitrate
		if ab == 0 {
			ab = 96e3
		}
		ad := cfg.AudioSegmentDuration
		if ad == 0 {
			ad = cfg.SegmentDuration
		}
		v.AudioSegmentDuration = ad
		an := v.AudioSegmentCount()
		at := &Track{
			ID:               0,
			Type:             TypeAudio,
			TargetBitrate:    ab,
			DeclaredBitrate:  ab,
			SegmentDuration:  ad,
			SegmentBytes:     make([]float64, an),
			SegmentDurations: make([]float64, an),
		}
		for i := 0; i < an; i++ {
			at.SegmentDurations[i] = v.AudioSegmentLength(i)
			at.SegmentBytes[i] = ab * at.SegmentDurations[i] / 8 // audio is CBR
		}
		v.AudioTracks = []*Track{at}
	}
	return v, nil
}

// complexitySeries draws n per-segment complexity factors with mean 1.
// For CBR the series is flat with ±3% jitter; for VBR it is a smoothed
// exponential of an AR(1) process rescaled so max ≈ spread.
func complexitySeries(n int, enc Encoding, spread float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	c := make([]float64, n)
	if enc == CBR {
		mean := 0.0
		for i := range c {
			c[i] = 1 + 0.03*(rng.Float64()*2-1)
			mean += c[i]
		}
		mean /= float64(n)
		for i := range c {
			c[i] /= mean
		}
		return c
	}
	// AR(1) in log space: scenes persist for a few segments.
	x := rng.NormFloat64()
	const rho = 0.75
	for i := range c {
		x = rho*x + math.Sqrt(1-rho*rho)*rng.NormFloat64()
		c[i] = math.Exp(0.45 * x)
	}
	// Normalise mean to 1, then compress toward 1 so that max/mean ≈ spread.
	mean := 0.0
	for _, v := range c {
		mean += v
	}
	mean /= float64(n)
	maxv := 0.0
	for i := range c {
		c[i] /= mean
		if c[i] > maxv {
			maxv = c[i]
		}
	}
	if maxv > 1 {
		// Map c -> 1 + (c-1)*k with k chosen so the max lands on spread,
		// then floor well above zero so sizes stay positive.
		k := (spread - 1) / (maxv - 1)
		for i := range c {
			c[i] = 1 + (c[i]-1)*k
			if c[i] < 0.25 {
				c[i] = 0.25
			}
		}
	}
	// Renormalise the mean (flooring can shift it slightly).
	mean = 0
	for _, v := range c {
		mean += v
	}
	mean /= float64(n)
	for i := range c {
		c[i] /= mean
	}
	return c
}

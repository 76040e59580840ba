// Package qoe computes the paper's QoE metrics (§2.2) — average displayed
// bitrate, time on low-quality tracks, track switches, stall duration and
// startup delay — both from simulator ground truth and, like the paper,
// purely from observed traffic plus UI progress samples, including the
// buffer inference of §2.5 (download progress minus playback progress).
package qoe

import (
	"math"
	"sort"

	"repro/internal/media"
	"repro/internal/player"
	"repro/internal/traffic"
	"repro/internal/uimon"
)

// Jain computes Jain's fairness index (Σx)² / (n·Σx²) over the clients'
// bitrates: 1 means every client achieved the same bitrate, 1/n that one
// client took it all. All-zero input is 1: everyone equally got nothing.
func Jain(xs []float64) float64 {
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// Report aggregates the QoE of one session.
type Report struct {
	// StartupDelay is the seconds until the first frame (-1 = never).
	StartupDelay float64
	// StallCount and StallSec summarise rebuffering after startup.
	StallCount int
	StallSec   float64
	// PlayedSec is the total playback time.
	PlayedSec float64
	// AvgBitrate is the playtime-weighted mean declared bitrate of
	// displayed segments, in bits/s.
	AvgBitrate float64
	// TimeOnTrack maps ladder index → displayed seconds.
	TimeOnTrack []float64
	// Switches counts displayed track changes; NonConsecutive counts
	// changes that skip rungs (worse for perceived quality).
	Switches       int
	NonConsecutive int
	// DataUsageBytes is the total bytes downloaded (media + documents).
	DataUsageBytes float64
	// WastedBytes is the bytes downloaded but never displayed.
	WastedBytes float64
}

// PctTimeBelow returns the fraction of playtime spent on tracks with a
// declared bitrate strictly below bps, given the ladder.
func (r *Report) PctTimeBelow(declared []float64, bps float64) float64 {
	if r.PlayedSec == 0 {
		return 0
	}
	t := 0.0
	for track, sec := range r.TimeOnTrack {
		if track < len(declared) && declared[track] < bps {
			t += sec
		}
	}
	return t / r.PlayedSec
}

// FromResult computes the report from simulator ground truth: the
// Summary the session folded online while it played. TimeOnTrack is
// copied because memoised Results are shared between callers.
func FromResult(res *player.Result) Report {
	rep := FromSummary(&res.Summary)
	rep.TimeOnTrack = append([]float64(nil), rep.TimeOnTrack...)
	return rep
}

// FromSummary converts a session's online Summary — the digest every
// session folds, and the only output of lean sessions and background
// flows — into a Report. TimeOnTrack aliases the summary's slice.
func FromSummary(s *player.Summary) Report {
	return Report{
		StartupDelay:   s.StartupDelay,
		StallCount:     s.StallCount,
		StallSec:       s.StallSec,
		PlayedSec:      s.PlayedSec,
		AvgBitrate:     s.AvgBitrate(),
		TimeOnTrack:    s.TimeOnTrack,
		Switches:       s.Switches,
		NonConsecutive: s.NonConsecutive,
		DataUsageBytes: s.TotalBytes,
		WastedBytes:    s.WastedBytes,
	}
}

// Inferred is a session view reconstructed the way the paper does it:
// traffic analysis for quality and switches, UI samples for stalls and
// startup, and the §2.5 buffer inference combining the two.
type Inferred struct {
	// Report carries the recovered QoE metrics.
	Report Report
	// Buffer is the inferred buffer occupancy at 1 s granularity.
	Buffer []BufferPoint
}

// BufferPoint is one inferred buffer-occupancy observation.
type BufferPoint struct {
	// T is the wall time.
	T float64
	// VideoSec and AudioSec are inferred buffered durations (audio 0
	// for multiplexed services).
	VideoSec, AudioSec float64
}

// Infer reconstructs QoE and buffer occupancy from the analyzer output
// and UI progress samples alone — no simulator internals.
func Infer(tr *traffic.Result, samples []uimon.Sample) Inferred {
	var inf Inferred
	rep := &inf.Report
	rep.StartupDelay = uimon.StartupDelay(samples)
	stalls := uimon.Stalls(samples, 1)
	rep.StallCount = len(stalls)
	for _, s := range stalls {
		rep.StallSec += s.Duration()
	}

	ladder := tr.Presentation.Video
	rep.TimeOnTrack = make([]float64, len(ladder))

	// Displayed quality: the paper replays the buffer — the last
	// download of an index before its playback time is what's shown.
	type dl struct {
		track int
		end   float64
		dur   float64
		start float64 // media start
	}
	latest := map[int]dl{} // video index -> latest download (by completion)
	maxIndex := -1
	for _, s := range tr.Segments {
		if s.Type != media.TypeVideo {
			continue
		}
		if s.Index > maxIndex {
			maxIndex = s.Index
		}
		rep.DataUsageBytes += float64(s.Bytes)
		cur, ok := latest[s.Index]
		if !ok || s.End > cur.end {
			if ok {
				rep.WastedBytes += float64(s.Bytes) // approximation: earlier copy wasted
			}
			latest[s.Index] = dl{track: s.Track, end: s.End, dur: s.Duration, start: s.MediaStart}
		}
	}
	for _, s := range tr.Segments {
		if s.Type == media.TypeAudio {
			rep.DataUsageBytes += float64(s.Bytes)
		}
	}

	// Walk segments in media order; a segment was displayed if playback
	// progressed past its media start.
	endPos := 0.0
	if len(samples) > 0 {
		endPos = samples[len(samples)-1].Position
	}
	var weighted, playedMedia float64
	prev := -1
	indices := make([]int, 0, len(latest))
	for i := range latest {
		indices = append(indices, i)
	}
	sort.Ints(indices)
	for _, i := range indices {
		d := latest[i]
		if d.start >= endPos {
			continue
		}
		weighted += ladder[d.track].DeclaredBitrate * d.dur
		playedMedia += d.dur
		rep.TimeOnTrack[d.track] += d.dur
		if prev >= 0 && d.track != prev {
			rep.Switches++
			if step := d.track - prev; step > 1 || step < -1 {
				rep.NonConsecutive++
			}
		}
		prev = d.track
	}
	if playedMedia > 0 {
		rep.AvgBitrate = weighted / playedMedia
	}
	rep.PlayedSec = playedMedia // media seconds shown
	if rep.StartupDelay >= 0 && len(samples) > 0 {
		rep.PlayedSec = samples[len(samples)-1].T - rep.StartupDelay - rep.StallSec
		if rep.PlayedSec < 0 {
			rep.PlayedSec = 0
		}
	}

	// Buffer inference (§2.5): buffered = contiguous downloaded media
	// end minus playback position, per content type.
	inf.Buffer = inferBuffer(tr, samples)
	return inf
}

func inferBuffer(tr *traffic.Result, samples []uimon.Sample) []BufferPoint {
	video := spansOf(tr.Segments, media.TypeVideo)
	audio := spansOf(tr.Segments, media.TypeAudio)
	out := make([]BufferPoint, 0, len(samples))
	for _, smp := range samples {
		pos := smp.Position
		v := contiguousEnd(video, smp.T, pos)
		a := contiguousEnd(audio, smp.T, pos)
		out = append(out, BufferPoint{T: smp.T, VideoSec: math.Max(0, v-pos), AudioSec: math.Max(0, a-pos)})
	}
	return out
}

// span is one downloaded segment on the media timeline, with the wall
// time its download completed.
type span struct{ start, end, done float64 }

// spansOf returns the downloads of a type sorted by media start. Spans
// with equal starts (a replaced segment) may land in either order:
// contiguousEnd takes the maximum end over them both ways.
func spansOf(segs []traffic.SegmentDownload, typ media.MediaType) []span {
	var spans []span
	for _, s := range segs {
		if s.Type == typ {
			spans = append(spans, span{s.MediaStart, s.MediaStart + s.Duration, s.End})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	return spans
}

// contiguousEnd returns the contiguous downloaded media end at wall time
// t, starting from playback position pos, over spans sorted by start.
func contiguousEnd(spans []span, t, pos float64) float64 {
	end := pos
	for _, sp := range spans {
		if sp.done > t {
			continue
		}
		if sp.start > end+1e-6 {
			break
		}
		if sp.end > end {
			end = sp.end
		}
	}
	return end
}

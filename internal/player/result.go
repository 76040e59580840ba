package player

import (
	"repro/internal/media"
	"repro/internal/traffic"
)

// Download is the ground-truth record of one media segment download.
type Download struct {
	// Type is video or audio.
	Type media.MediaType
	// Track and Index identify the segment.
	Track, Index int
	// Declared is the track's declared bitrate in bits/s.
	Declared float64
	// Duration is the segment's media duration.
	Duration float64
	// Bytes is the transferred size.
	Bytes float64
	// Start and End are the request/completion wall times.
	Start, End float64
	// Replacement marks a re-download of an already-buffered index.
	Replacement bool
	// Discarded is set when the segment was later dropped from the
	// buffer without being played (wasted data).
	Discarded bool
}

// Stall is one rebuffering interruption after playback started.
type Stall struct {
	// Start and End are wall times; an unresolved stall ends at the
	// session end.
	Start, End float64
}

// Duration returns the stall length in seconds.
func (s Stall) Duration() float64 { return s.End - s.Start }

// PlayInterval is one continuous stretch of playback.
type PlayInterval struct {
	// WallStart/WallEnd bound the interval in wall time.
	WallStart, WallEnd float64
	// MediaStart is the playhead position at WallStart (the playhead
	// advances at rate 1 within the interval).
	MediaStart float64
}

// BufferSample is a once-per-second snapshot of playback state, the
// simulator-side equivalent of combining the paper's UI monitor (playback
// progress at 1 s granularity) with its buffer inference.
type BufferSample struct {
	// T is the wall time.
	T float64
	// Playhead is the media position.
	Playhead float64
	// VideoSec and AudioSec are the playable buffered durations;
	// AudioSec is 0 for multiplexed services.
	VideoSec, AudioSec float64
	// Playing reports whether playback was advancing.
	Playing bool
}

// Event is one annotated moment in the session timeline.
type Event struct {
	// T is the wall time.
	T float64
	// Kind is a short tag ("startup", "stall", "resume", "pause-dl",
	// "resume-dl", "switch", "sr-drop", "sr-replace", "reject").
	Kind string
	// Detail is a human-readable description.
	Detail string
}

// Result is everything a session produces.
type Result struct {
	// Name echoes the player configuration name.
	Name string
	// MediaDuration is the presentation length in seconds.
	MediaDuration float64
	// SegmentCount is the number of video segments.
	SegmentCount int
	// SegmentDuration is the nominal video segment duration.
	SegmentDuration float64
	// Declared lists the ladder's declared bitrates ascending.
	Declared []float64
	// EndTime is the wall time the session finished or was cut off.
	EndTime float64

	// StartupDelay is the seconds from session start to first frame;
	// -1 when playback never started.
	StartupDelay float64
	// Stalls lists rebuffering events (startup excluded).
	Stalls []Stall
	// PlayIntervals lists continuous playback stretches.
	PlayIntervals []PlayInterval
	// Displayed maps each video segment index to the track that was on
	// screen when it played (-1 = never played).
	Displayed []int
	// DisplayedWallStart maps each played segment to the wall time its
	// playback began (-1 = never played).
	DisplayedWallStart []float64

	// Downloads is the ground-truth download log.
	Downloads []Download
	// Transactions is the HTTP log the traffic analyzer consumes.
	Transactions []traffic.Transaction
	// Samples holds 1 Hz buffer/playhead snapshots.
	Samples []BufferSample
	// Events is the annotated timeline.
	Events []Event

	// Summary is the session's online QoE digest, copied when the
	// session finishes; its TimeOnTrack slice is shared with the session.
	Summary Summary
}

// TotalStall returns the summed stall duration in seconds.
func (r *Result) TotalStall() float64 {
	t := 0.0
	for _, s := range r.Stalls {
		t += s.Duration()
	}
	return t
}

// PlayedSeconds returns the total playback time.
func (r *Result) PlayedSeconds() float64 {
	t := 0.0
	for _, p := range r.PlayIntervals {
		t += p.WallEnd - p.WallStart
	}
	return t
}

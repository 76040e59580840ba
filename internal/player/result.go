package player

import (
	"fmt"

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

// Event is one annotated moment in the session timeline. It keeps its
// operands, not its text: Detail formats them when read, so a session
// that nobody reads the timeline of pays no formatting.
type Event struct {
	// T is the wall time.
	T float64
	// Kind is a short tag ("startup", "stall", "resume", "pause-dl",
	// "resume-dl", "switch", "sr-drop", "sr-replace", "reject").
	Kind string
	// Buffer names the buffer ("video" or "audio") of a pause-dl or
	// resume-dl event.
	Buffer string
	// Num holds the event's numbers in the order Detail prints them;
	// counts, indices and tracks are whole.
	Num [3]float64
}

// Detail is the event's human-readable description.
func (e Event) Detail() string {
	n := e.Num
	switch e.Kind {
	case "startup":
		return fmt.Sprintf("playback started, delay %.2fs", n[0])
	case "resume":
		return fmt.Sprintf("stall over after %.2fs", n[0])
	case "stall":
		return fmt.Sprintf("buffer empty at playhead %.1fs", n[0])
	case "resume-dl":
		return fmt.Sprintf("%s buffer %.1fs ≤ resume threshold %.0fs", e.Buffer, n[0], n[1])
	case "pause-dl":
		return fmt.Sprintf("%s buffer %.1fs ≥ pause threshold %.0fs", e.Buffer, n[0], n[1])
	case "sr-drop":
		return fmt.Sprintf("dropped %d buffered segments from index %d", int(n[0]), int(n[1]))
	case "reject":
		return fmt.Sprintf("origin rejected segment request #%d", int(n[0]))
	case "sr-replace":
		return fmt.Sprintf("segment %d: track %d → %d", int(n[0]), int(n[1]), int(n[2]))
	case "switch":
		return fmt.Sprintf("segment %d downloaded at track %d (prev %d)", int(n[0]), int(n[1]), int(n[2]))
	}
	return ""
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

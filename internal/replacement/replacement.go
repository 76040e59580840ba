// Package replacement implements Segment Replacement (SR) policies —
// discarding already-buffered video segments and re-downloading them at a
// (hopefully) better quality when the network turns out better than
// predicted (§4.1 of the paper).
//
// Three designs from the paper are covered:
//
//   - ContiguousOnUpswitch reproduces H4 and ExoPlayer v1: whenever the
//     player switches to a higher track it discards the buffer from the
//     first segment of a lower track onward and re-downloads everything
//     after it — the deque buffer cannot drop a segment in the middle, so
//     replacements can land at *lower* quality and even cause stalls
//     (Figure 10).
//   - PerSegment is the paper's improved SR (§4.1.3): one segment at a
//     time, only ever replaced by strictly higher quality, and suspended
//     when the buffer falls below a safety threshold. It requires a
//     buffer that supports mid-buffer discard.
//   - PerSegment with CapTrack ≥ 0 is the data-saving refinement: only
//     segments at or below the cap (e.g. the 720p rung) are eligible,
//     cutting wasted bytes with nearly no QoE loss.
package replacement

// BufferedSegment is the policy's view of one unplayed buffered segment.
type BufferedSegment struct {
	// Index is the segment's position in the video.
	Index int
	// Track is the quality it was downloaded at.
	Track int
	// Start is the segment's media start time in seconds.
	Start float64
}

// View is the player state a policy decides from.
type View struct {
	// Buffered lists unplayed buffered video segments in playback order.
	Buffered []BufferedSegment
	// Playhead is the current playback position in media seconds.
	Playhead float64
	// BufferSec is the playable buffer occupancy in seconds.
	BufferSec float64
	// SelectedTrack is the track adaptation just chose for the next
	// segment.
	SelectedTrack int
	// LastTrack is the track of the most recent video download.
	LastTrack int
	// NextIndex is the next not-yet-downloaded segment index.
	NextIndex int
	// SegmentDuration is the nominal segment duration in seconds.
	SegmentDuration float64
}

// Op is the action a policy requests.
type Op int

const (
	// OpNext fetches the next future segment (no replacement).
	OpNext Op = iota
	// OpReplace re-downloads the single buffered segment at Index,
	// keeping the old copy playable until the new one arrives (requires
	// mid-buffer discard support).
	OpReplace
	// OpDropTail discards the buffer from Index onward immediately and
	// restarts sequential fetching at Index (the only replacement a
	// deque buffer supports).
	OpDropTail
)

// Action is a policy decision.
type Action struct {
	// Op selects the action kind.
	Op Op
	// Index is the target segment for OpReplace/OpDropTail.
	Index int
}

// Policy decides, before each video request, whether to fetch forward or
// replace buffered content. A report labels a policy by the service
// that uses it, so the interface carries no name.
type Policy interface {
	// Consider returns the next action given the player state.
	Consider(v View) Action
}

// None never replaces.
type None struct{}

// Consider implements Policy.
func (None) Consider(View) Action { return Action{Op: OpNext} }

// ContiguousOnUpswitch is the H4 / ExoPlayer v1 scheme. When the selected
// track rises above the previous one and the buffer is comfortable, it
// finds the earliest buffered segment (beyond a safety margin) from a
// track lower than the *previous* selection and discards the buffer from
// there on. Only the first replaced segment is guaranteed to improve;
// everything after it is re-fetched at whatever adaptation then picks —
// 21.31% of H4's replacements landed at lower quality (§4.1.1).
type ContiguousOnUpswitch struct {
	// MinBufferSec gates replacement on buffer occupancy (default 10 s).
	MinBufferSec float64
	// SafetyMarginSec protects segments about to play (default 5 s).
	SafetyMarginSec float64
	// IgnoreBufferedQuality reproduces H4: on an up-switch, replacement
	// starts at the first replaceable buffered segment no matter what
	// quality it already has — "in 22.5% of SR cases, even the first
	// redownloaded segment had lower or equal quality compared with the
	// one already in the buffer" (§4.1.1). When false (ExoPlayer v1),
	// replacement starts at the first segment below the track about to
	// be selected.
	IgnoreBufferedQuality bool
}

// Consider implements Policy.
func (p ContiguousOnUpswitch) Consider(v View) Action {
	minBuf := p.MinBufferSec
	if minBuf == 0 {
		minBuf = 10
	}
	margin := p.SafetyMarginSec
	if margin == 0 {
		margin = 5
	}
	if v.LastTrack < 0 || v.SelectedTrack <= v.LastTrack || v.BufferSec < minBuf {
		return Action{Op: OpNext}
	}
	// Scan for the earliest buffered segment below the track about to be
	// selected (ExoPlayer v1's rule). Only the first discarded segment is
	// guaranteed to be at least one rung below the new selection; the
	// contiguous tail after it may contain higher-quality segments, and
	// the refetch re-runs adaptation per segment — both are how H4 ends
	// up re-downloading at equal or lower quality (§4.1.1).
	for _, s := range v.Buffered {
		if s.Start < v.Playhead+margin {
			continue
		}
		if p.IgnoreBufferedQuality || s.Track < v.SelectedTrack {
			return Action{Op: OpDropTail, Index: s.Index}
		}
	}
	return Action{Op: OpNext}
}

// PerSegment is the improved SR of §4.1.3: replace exactly one segment at
// a time, only with strictly higher quality, and only while the buffer is
// healthy; with CapTrack ≥ 0 only segments at or below that rung are
// eligible (the wasted-data refinement).
type PerSegment struct {
	// MinBufferSec suspends replacement below this occupancy so the
	// player returns to fetching future segments (default 15 s).
	MinBufferSec float64
	// SafetyMarginSec protects segments about to play (default 5 s).
	SafetyMarginSec float64
	// CapTrack, when ≥ 0, restricts replacement to segments whose track
	// is ≤ CapTrack. Use -1 for no cap.
	CapTrack int
}

// Consider implements Policy.
func (p PerSegment) Consider(v View) Action {
	minBuf := p.MinBufferSec
	if minBuf == 0 {
		minBuf = 15
	}
	margin := p.SafetyMarginSec
	if margin == 0 {
		margin = 5
	}
	if v.BufferSec < minBuf {
		return Action{Op: OpNext}
	}
	for _, s := range v.Buffered {
		if s.Start < v.Playhead+margin {
			continue
		}
		if s.Track >= v.SelectedTrack {
			continue
		}
		if p.CapTrack >= 0 && s.Track > p.CapTrack {
			continue
		}
		return Action{Op: OpReplace, Index: s.Index}
	}
	return Action{Op: OpNext}
}

// Package player implements the client side of a HAS service as a
// deterministic virtual-time engine: startup logic, playback-buffer
// management, the pausing/resuming download controller, connection
// scheduling (single, per-segment parallel, sub-segment split; synced or
// desynced audio), track adaptation and segment replacement — every
// client-side design axis Table 1 of the paper distinguishes, including
// the defective variants Table 2 attributes QoE issues to.
package player

import (
	"fmt"

	"repro/internal/adaptation"
	"repro/internal/replacement"
)

// SchedulerKind selects how segment downloads map onto TCP connections
// (§3.2 "TCP connection utilization").
type SchedulerKind int

const (
	// SchedulerSingle downloads one segment at a time over one
	// connection (all studied HLS services).
	SchedulerSingle SchedulerKind = iota
	// SchedulerParallel keeps up to MaxConnections segments in flight,
	// each on its own connection (D1's design).
	SchedulerParallel
	// SchedulerSplit downloads one segment at a time, split into
	// MaxConnections byte ranges fetched in parallel (D3's design).
	SchedulerSplit
)

// String names the scheduler.
func (k SchedulerKind) String() string {
	switch k {
	case SchedulerSingle:
		return "single"
	case SchedulerParallel:
		return "parallel"
	default:
		return "split"
	}
}

// AudioPolicy controls how separate-audio services coordinate the audio
// and video download processes (§3.2).
type AudioPolicy int

const (
	// AudioSynced always fetches whichever content type is further
	// behind, keeping the two buffers tightly coupled (best practice).
	AudioSynced AudioPolicy = iota
	// AudioDesynced dedicates one connection to audio and the rest to
	// video, letting the buffers drift tens of seconds apart under low
	// bandwidth — D1's defect, Figure 6.
	AudioDesynced
)

// Request describes an HTTP request the player is about to issue; the
// RequestGate hook can reject it (the paper's request-rejection probe).
type Request struct {
	// URL is the request path.
	URL string
	// RangeStart/RangeEnd give the byte range, -1 when absent.
	RangeStart, RangeEnd int64
	// IsSegment marks media segment requests (documents are never
	// counted by the startup probe).
	IsSegment bool
	// SegmentSeq is the 0-based ordinal of this segment request within
	// the session (valid when IsSegment).
	SegmentSeq int
}

// Config parameterises a player. The zero value is not runnable; use a
// service definition or fill the fields explicitly.
type Config struct {
	// Name labels the player in reports.
	Name string

	// SessionDuration caps the experiment wall time in seconds (the
	// paper runs 10-minute sessions).
	SessionDuration float64

	// StartupBufferSec is the buffered duration required before playback
	// begins (§3.3.1).
	StartupBufferSec float64
	// StartupSegments is the minimum number of downloaded segments
	// before playback begins. Most services effectively use 1, which
	// §4.3 identifies as a stall risk with long segments; the paper
	// recommends 2–3.
	StartupSegments int
	// StartupTrack is the ladder index of the first segment.
	StartupTrack int
	// RecoverySec and RecoverySegments gate resuming after a stall;
	// zero values inherit the startup settings.
	RecoverySec      float64
	RecoverySegments int

	// PauseThresholdSec stops downloading when the buffer reaches it;
	// ResumeThresholdSec restarts downloading when the buffer drains to
	// it (§3.3.2).
	PauseThresholdSec  float64
	ResumeThresholdSec float64

	// MaxConnections bounds the TCP connection pool.
	MaxConnections int
	// Persistent reuses connections across requests; non-persistent
	// players re-handshake and re-enter slow start for every segment
	// (H2, H3, H5 — a QoE issue per Table 2).
	Persistent bool
	// Scheduler picks the connection-utilisation strategy.
	Scheduler SchedulerKind
	// VideoPipeline is the number of concurrent video segment fetches a
	// synced SchedulerParallel player keeps in flight (default 1; the
	// desynced D1 design instead pipelines on all non-audio connections).
	VideoPipeline int
	// SplitSkew distorts SchedulerSplit's byte-range split points: 0
	// splits evenly (optimal when connections share fairly), positive
	// values give later parts progressively more bytes. §3.2 notes the
	// split point "shall be carefully selected based on per connection
	// bandwidth to ensure all sub-segments arrive in similar time" —
	// this knob quantifies the cost of getting it wrong.
	SplitSkew float64
	// Audio selects the audio/video coordination policy (separate-audio
	// services only).
	Audio AudioPolicy

	// Algorithm is the track-selection logic.
	Algorithm adaptation.Algorithm
	// Estimator tracks achieved throughput; nil defaults to an EWMA.
	Estimator adaptation.Estimator
	// Replacement is the segment-replacement policy; nil means none.
	// Replacement requires SchedulerSingle.
	Replacement replacement.Policy
	// MidBufferDiscard marks a buffer implementation that can drop a
	// single segment in the middle (required by per-segment SR; ExoPlayer
	// 's double-ended queue cannot, §4.1.2).
	MidBufferDiscard bool

	// MinEstimateSamples is how many video throughput samples the player
	// needs before trusting its bandwidth estimate; until then it keeps
	// selecting the startup track (H3 "may not yet have built up enough
	// information about the actual network condition", §4.3). Default 1.
	MinEstimateSamples int

	// ExposeSegmentSizes feeds per-segment actual sizes to the
	// adaptation logic when the manifest carries them. ExoPlayer v2 does
	// not (§4.2), so its model keeps this false.
	ExposeSegmentSizes bool

	// RequestGate, when non-nil, is consulted before every request; a
	// false return makes the origin reject it and the player give up
	// downloading (used by the startup-buffer probe, §3.3.1).
	RequestGate func(Request) bool
}

// Normalized returns the config exactly as a session will run it, with
// every default filled in (and the validation errors a session
// constructor would report). Exported for the experiment cache: a config
// spelled with zero values and one spelled with the explicit defaults
// must map to the same cache key, so fingerprints are taken over the
// normalized form.
func (c Config) Normalized() (Config, error) { return c.withDefaults() }

func (c Config) withDefaults() (Config, error) {
	if c.SessionDuration <= 0 {
		c.SessionDuration = 600
	}
	if c.StartupSegments <= 0 {
		c.StartupSegments = 1
	}
	if c.RecoverySec == 0 {
		c.RecoverySec = c.StartupBufferSec
	}
	if c.RecoverySegments == 0 {
		c.RecoverySegments = c.StartupSegments
	}
	if c.MaxConnections <= 0 {
		c.MaxConnections = 1
	}
	if c.Estimator == nil {
		c.Estimator = adaptation.NewEWMA(0.4)
	}
	if c.MinEstimateSamples <= 0 {
		c.MinEstimateSamples = 1
	}
	if c.VideoPipeline <= 0 {
		c.VideoPipeline = 1
	}
	if c.Algorithm == nil {
		return c, fmt.Errorf("player: Config.Algorithm is required")
	}
	if c.Replacement == nil {
		c.Replacement = replacement.None{}
	}
	if _, isNone := c.Replacement.(replacement.None); !isNone && c.Scheduler != SchedulerSingle {
		return c, fmt.Errorf("player: segment replacement requires SchedulerSingle")
	}
	if c.PauseThresholdSec <= 0 {
		c.PauseThresholdSec = 60
	}
	if c.ResumeThresholdSec <= 0 || c.ResumeThresholdSec > c.PauseThresholdSec {
		c.ResumeThresholdSec = c.PauseThresholdSec - 10
		if c.ResumeThresholdSec <= 0 {
			c.ResumeThresholdSec = c.PauseThresholdSec / 2
		}
	}
	if c.StartupBufferSec <= 0 {
		c.StartupBufferSec = 8
	}
	return c, nil
}

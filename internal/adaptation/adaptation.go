// Package adaptation implements the client-side track-selection logic of a
// HAS player: bandwidth estimators and a family of selection algorithms
// covering the behaviours the paper observed in the wild (§3.3) and the
// best-practice fixes it evaluates (§4.2) — conservative and aggressive
// throughput rules, buffer-protected down-switching, ExoPlayer-style
// hysteresis, buffer-based selection, the oscillating greedy logic behind
// D1's instability, and actual-bitrate-aware selection for VBR content.
package adaptation

import "math"

// Context is the information available to an Algorithm for one decision.
// Which fields are populated reflects what the player exposes: ExoPlayer
// v2 exposes only track formats (declared bitrate), buffer occupancy and
// a bandwidth estimate, hiding per-segment sizes from the adaptation
// interface even when the manifest carries them (§4.2).
type Context struct {
	// Declared lists the ladder's declared bitrates ascending (bits/s).
	Declared []float64
	// Average lists advertised average actual bitrates per track (bits/s);
	// nil when the manifest does not expose them.
	Average []float64
	// SegmentSize returns the actual size in bytes of (track, index), or
	// nil when the player does not expose per-segment sizes.
	SegmentSize func(track, index int) float64
	// SegmentDuration is the nominal segment duration in seconds.
	SegmentDuration float64
	// SegmentCount is the total number of segments in the presentation.
	SegmentCount int
	// NextIndex is the index of the segment about to be fetched.
	NextIndex int
	// BufferSec is the current playback buffer occupancy in seconds.
	BufferSec float64
	// BufferTrend is the occupancy change since the previous decision.
	BufferTrend float64
	// EstimateBps is the current bandwidth estimate (0 = none yet).
	EstimateBps float64
	// LastTrack is the track of the previous video download (-1 at start).
	LastTrack int
	// StartupTrack is the configured first track.
	StartupTrack int
}

// trackRate returns the bitrate the algorithm should compare against the
// bandwidth estimate for the given track: the worst actual bitrate over
// the next horizon segments when sizes are exposed, else the advertised
// average, else the declared bitrate.
func (c *Context) trackRate(track, horizon int, useActual bool) float64 {
	if useActual && c.SegmentSize != nil {
		worst := 0.0
		for i := c.NextIndex; i < c.NextIndex+horizon && i < c.SegmentCount; i++ {
			r := c.SegmentSize(track, i) * 8 / c.SegmentDuration
			if r > worst {
				worst = r
			}
		}
		if worst > 0 {
			return worst
		}
	}
	if useActual && c.Average != nil {
		return c.Average[track]
	}
	return c.Declared[track]
}

// Algorithm selects the track for the next video segment. A report
// labels an algorithm where it configures one, so the interface carries
// no name.
type Algorithm interface {
	// Select returns the chosen track index.
	Select(ctx Context) int
}

// highestUnder returns the highest track whose comparison rate is at most
// budget, or 0 when even the lowest track exceeds it.
func highestUnder(ctx Context, budget float64, useActual bool, horizon int) int {
	best := 0
	for t := range ctx.Declared {
		if ctx.trackRate(t, horizon, useActual) <= budget {
			best = t
		}
	}
	return best
}

// Throughput is the conventional rate-based rule: pick the highest track
// whose declared bitrate fits within Factor × estimated bandwidth.
// A positive DecreaseBufferSec protects quality when the buffer is full:
// the player does not switch down while occupancy exceeds it (the
// behaviour of H2/D3/S1; the apps without it — H1, H4, H6, D1 — ramp down
// immediately on bandwidth dips, a QoE issue per Table 2).
type Throughput struct {
	// Factor scales the bandwidth estimate (0.75 is the conservative
	// cluster in Figure 9; D2 behaves like 0.5–0.6).
	Factor float64
	// UseActual compares against actual bitrates instead of declared
	// ones when the player exposes them (the §4.2 best practice, and
	// what makes D3/S1 "aggressive" in Figure 9).
	UseActual bool
	// Horizon is how many upcoming segments to consider for the actual
	// bitrate (default 1).
	Horizon int
	// DecreaseBufferSec, when positive, suppresses down-switches while
	// the buffer holds more than this many seconds.
	DecreaseBufferSec float64
	// MinBufferForUpSec, when positive, suppresses up-switches until the
	// buffer holds at least this many seconds (protects aggressive
	// players during startup).
	MinBufferForUpSec float64
}

// Select implements Algorithm.
func (a Throughput) Select(ctx Context) int {
	if ctx.EstimateBps <= 0 {
		return clampTrack(ctx, ctx.StartupTrack)
	}
	h := a.Horizon
	if h <= 0 {
		h = 1
	}
	t := highestUnder(ctx, a.Factor*ctx.EstimateBps, a.UseActual, h)
	if a.DecreaseBufferSec > 0 && ctx.LastTrack >= 0 && t < ctx.LastTrack && ctx.BufferSec > a.DecreaseBufferSec {
		return ctx.LastTrack
	}
	if a.MinBufferForUpSec > 0 && ctx.LastTrack >= 0 && t > ctx.LastTrack && ctx.BufferSec < a.MinBufferForUpSec {
		return ctx.LastTrack
	}
	return t
}

// Hysteresis models ExoPlayer's default AdaptiveTrackSelection: a
// throughput rule gated by buffer thresholds — switch up only with enough
// buffer, switch down only when the buffer is low. This is the player
// §4's best-practice experiments modify.
type Hysteresis struct {
	// Factor is the bandwidth fraction (ExoPlayer default 0.75).
	Factor float64
	// MinBufferForUp is the occupancy required before increasing quality
	// (ExoPlayer's minDurationForQualityIncreaseMs, default 10 s).
	MinBufferForUp float64
	// MaxBufferForDown suppresses decreases while occupancy exceeds it
	// (ExoPlayer's maxDurationForQualityDecreaseMs, default 25 s).
	MaxBufferForDown float64
	// UseActual switches the comparison to actual segment bitrates —
	// the modified algorithm evaluated in Figure 13.
	UseActual bool
	// Horizon is the lookahead for UseActual (default 1).
	Horizon int
}

// DefaultHysteresis returns ExoPlayer's default parameters.
func DefaultHysteresis() Hysteresis {
	return Hysteresis{Factor: 0.75, MinBufferForUp: 10, MaxBufferForDown: 25}
}

// Select implements Algorithm.
func (a Hysteresis) Select(ctx Context) int {
	if ctx.EstimateBps <= 0 || ctx.LastTrack < 0 {
		return clampTrack(ctx, ctx.StartupTrack)
	}
	h := a.Horizon
	if h <= 0 {
		h = 1
	}
	ideal := highestUnder(ctx, a.Factor*ctx.EstimateBps, a.UseActual, h)
	switch {
	case ideal > ctx.LastTrack && ctx.BufferSec < a.MinBufferForUp:
		return ctx.LastTrack
	case ideal < ctx.LastTrack && ctx.BufferSec > a.MaxBufferForDown:
		return ctx.LastTrack
	}
	return ideal
}

// BufferBased is a BBA-style rule (Huang et al., cited by the paper):
// occupancy below Reservoir maps to the lowest track, above Reservoir+
// Cushion to the highest, linear in between. Bandwidth estimates are
// ignored entirely.
type BufferBased struct {
	// Reservoir is the occupancy (seconds) reserved for safety.
	Reservoir float64
	// Cushion is the occupancy span mapped across the ladder.
	Cushion float64
}

// Select implements Algorithm.
func (a BufferBased) Select(ctx Context) int {
	if ctx.LastTrack < 0 {
		return clampTrack(ctx, ctx.StartupTrack)
	}
	top := len(ctx.Declared) - 1
	if top == 0 {
		return 0
	}
	f := (ctx.BufferSec - a.Reservoir) / a.Cushion
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return int(math.Floor(f*float64(top) + 1e-9))
}

// OscillatingGreedy reproduces D1's unstable logic (Figure 8): it probes
// upward whenever the buffer grew during the last download and steps down
// when it shrank, trying to pull the *average actual* bitrate up to the
// link rate. Under constant bandwidth this never converges — the selected
// track keeps bouncing between rungs around the capacity.
type OscillatingGreedy struct {
	// Deadband is the occupancy change (seconds) treated as "no trend".
	Deadband float64
	// UpFactor bounds upward probes: a higher track is tried only when
	// its actual bitrate is within UpFactor × the bandwidth estimate,
	// keeping the oscillation around the link capacity as in Figure 8
	// (default 1.5).
	UpFactor float64
}

// Select implements Algorithm.
func (a OscillatingGreedy) Select(ctx Context) int {
	if ctx.LastTrack < 0 || ctx.EstimateBps <= 0 {
		return clampTrack(ctx, ctx.StartupTrack)
	}
	up := a.UpFactor
	if up <= 0 {
		up = 1.5
	}
	if ctx.BufferTrend < -a.Deadband {
		return clampTrack(ctx, ctx.LastTrack-1)
	}
	next := clampTrack(ctx, ctx.LastTrack+1)
	if ctx.trackRate(next, 1, true) > up*ctx.EstimateBps {
		return ctx.LastTrack
	}
	return next
}

func clampTrack(ctx Context, t int) int {
	if t < 0 {
		return 0
	}
	if t >= len(ctx.Declared) {
		return len(ctx.Declared) - 1
	}
	return t
}

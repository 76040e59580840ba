package adaptation

// Baseline algorithms from the literature the paper compares against
// conceptually (§5 Related Work): FESTIVE's gradual, harmonic-mean-driven
// switching (Jiang et al.) and probe-and-adapt's additive-increase
// probing (Li et al.). They serve as reference points for the ablation
// experiments; the paper itself studies the deployed commercial logics.

// Festive follows FESTIVE's core rules: a conservative bandwidth target
// over a harmonic-mean estimate (fed externally via Context.EstimateBps,
// typically from a SlidingHarmonic estimator), one-rung-at-a-time
// switching, and an up-switch delay that grows with the target rung so
// high switches need sustained evidence.
type Festive struct {
	// Factor scales the estimate (FESTIVE uses ~0.85).
	Factor float64

	upStreak int
	lastSeen int
}

// NewFestive returns a FESTIVE-like selector.
func NewFestive() *Festive { return &Festive{Factor: 0.85} }

// Select implements Algorithm.
func (f *Festive) Select(ctx Context) int {
	if ctx.EstimateBps <= 0 || ctx.LastTrack < 0 {
		return clampTrack(ctx, ctx.StartupTrack)
	}
	factor := f.Factor
	if factor <= 0 {
		factor = 0.85
	}
	ref := highestUnder(ctx, factor*ctx.EstimateBps, false, 1)
	switch {
	case ref > ctx.LastTrack:
		// Gradual up-switch: k consecutive agreeing decisions before
		// moving up one rung, with k equal to the current rung + 1
		// (higher rungs demand more evidence).
		if ctx.LastTrack == f.lastSeen {
			f.upStreak++
		} else {
			f.upStreak = 1
		}
		f.lastSeen = ctx.LastTrack
		if f.upStreak > ctx.LastTrack {
			f.upStreak = 0
			return clampTrack(ctx, ctx.LastTrack+1)
		}
		return ctx.LastTrack
	case ref < ctx.LastTrack:
		f.upStreak = 0
		f.lastSeen = ctx.LastTrack
		// Down-switches are immediate but also one rung at a time.
		return clampTrack(ctx, ctx.LastTrack-1)
	default:
		f.upStreak = 0
		f.lastSeen = ctx.LastTrack
		return ref
	}
}

// ProbeAdapt models probe-and-adapt (Li et al.): hold the current rung
// while the buffer is steady, probe one rung up when the buffer has been
// growing, step down when it drains — TCP-like additive increase driven
// by buffer dynamics rather than a bandwidth estimate alone.
type ProbeAdapt struct {
	// GrowSec is the buffer growth (seconds per decision) treated as
	// spare capacity worth probing (default 0.5).
	GrowSec float64
	// DrainSec is the buffer shrinkage that forces a down-switch
	// (default 1).
	DrainSec float64
	// MinBufferProbe is the occupancy required before probing up
	// (default 10 s).
	MinBufferProbe float64
}

// Select implements Algorithm.
func (a ProbeAdapt) Select(ctx Context) int {
	grow, drain, minBuf := a.GrowSec, a.DrainSec, a.MinBufferProbe
	if grow == 0 {
		grow = 0.5
	}
	if drain == 0 {
		drain = 1
	}
	if minBuf == 0 {
		minBuf = 10
	}
	if ctx.LastTrack < 0 || ctx.EstimateBps <= 0 {
		return clampTrack(ctx, ctx.StartupTrack)
	}
	switch {
	case ctx.BufferTrend <= -drain:
		return clampTrack(ctx, ctx.LastTrack-1)
	case ctx.BufferTrend >= grow && ctx.BufferSec >= minBuf:
		// Probe only when the next rung plausibly fits the link.
		next := clampTrack(ctx, ctx.LastTrack+1)
		if ctx.trackRate(next, 1, true) <= 1.2*ctx.EstimateBps {
			return next
		}
		return ctx.LastTrack
	default:
		return ctx.LastTrack
	}
}

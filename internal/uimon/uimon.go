// Package uimon is the analogue of the paper's UI monitor (§2.4): the
// only things it sees are once-per-second playback-progress samples (the
// paper hooked ProgressBar.setProgress via Xposed, giving 1 s
// granularity). From that series alone it extracts startup delay and
// stall intervals; combined with the traffic analyzer it supports buffer
// inference (§2.5).
package uimon

import "repro/internal/player"

// Sample is one observation of the seekbar: at wall time T the playback
// position read Position seconds.
type Sample struct {
	// T is the wall time of the observation.
	T float64
	// Position is the media position shown by the player.
	Position float64
}

// Interval is a half-open wall-time interval.
type Interval struct {
	// Start and End bound the interval in wall seconds.
	Start, End float64
}

// Duration returns End-Start.
func (iv Interval) Duration() float64 { return iv.End - iv.Start }

// FromResult converts a simulator session's 1 Hz snapshots into the
// samples a UI monitor would have produced (the monitor sees only the
// progress value, not the buffer).
func FromResult(r *player.Result) []Sample {
	out := make([]Sample, 0, len(r.Samples))
	for _, s := range r.Samples {
		out = append(out, Sample{T: s.T, Position: s.Playhead})
	}
	return out
}

// StartupDelay estimates the time from session start until playback first
// advances. It returns -1 when playback never started.
func StartupDelay(samples []Sample) float64 {
	for i := 1; i < len(samples); i++ {
		if samples[i].Position > samples[i-1].Position+1e-9 {
			return samples[i-1].T
		}
	}
	return -1
}

// Stalls returns intervals after playback start during which the position
// failed to advance for at least minDur seconds. With 1 s samples the
// boundaries carry ±1 s quantisation, exactly like the paper's monitor.
func Stalls(samples []Sample, minDur float64) []Interval {
	start := StartupDelay(samples)
	if start < 0 {
		return nil
	}
	var out []Interval
	stalledSince := -1.0
	for i := 1; i < len(samples); i++ {
		if samples[i].T <= start {
			continue
		}
		advancing := samples[i].Position > samples[i-1].Position+1e-9
		if !advancing {
			if stalledSince < 0 {
				stalledSince = samples[i-1].T
			}
			continue
		}
		if stalledSince >= 0 {
			if iv := (Interval{Start: stalledSince, End: samples[i-1].T}); iv.Duration() >= minDur {
				out = append(out, iv)
			}
			stalledSince = -1
		}
	}
	if stalledSince >= 0 && len(samples) > 0 {
		if iv := (Interval{Start: stalledSince, End: samples[len(samples)-1].T}); iv.Duration() >= minDur {
			out = append(out, iv)
		}
	}
	return out
}

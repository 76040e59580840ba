// Package probe re-derives Table 1 of the paper from the outside, using
// only black-box observations — the same methodology the paper applies to
// the proprietary apps: request rejection for the startup buffer
// (§3.3.1), traffic on/off analysis plus buffer inference for the
// download-control thresholds (§3.3.2), and constant-bandwidth runs for
// stability and aggressiveness (§3.3.3). Matching the probed values
// against the configured service models closes the loop on the
// methodology itself.
package probe

import (
	"fmt"
	"math"

	"repro/internal/expcache"
	"repro/internal/media"
	"repro/internal/modify"
	"repro/internal/netem"
	"repro/internal/player"
	"repro/internal/qoe"
	"repro/internal/services"
	"repro/internal/traffic"
	"repro/internal/uimon"
)

// StartupBuffer finds the minimal number of segments (and the video
// seconds they carry) the service needs before starting playback, by
// rejecting all segment requests after the first n and growing n.
func StartupBuffer(svc *services.Service, maxN int) (segments int, seconds float64, err error) {
	org, err := expcache.Origin(svc)
	if err != nil {
		return 0, 0, err
	}
	p := netem.Constant("probe10", 10e6, 120)
	for n := 1; n <= maxN; n++ {
		gate := modify.RejectAfter(n)
		res, err := expcache.Run(svc.Player, org, p, 60, func(c *player.Config) {
			c.RequestGate = gate
		})
		if err != nil {
			return 0, 0, err
		}
		if res.StartupDelay >= 0 {
			// The startup buffer is the min of the buffered video and
			// audio durations (both gate playback for separate-audio
			// services).
			var vs, as float64
			hasAudio := false
			for _, d := range res.Downloads {
				if d.End == 0 {
					continue
				}
				if d.Type == media.TypeVideo {
					vs += d.Duration
				} else {
					as += d.Duration
					hasAudio = true
				}
			}
			secs := vs
			if hasAudio && as < vs {
				secs = as
			}
			return n, secs, nil
		}
	}
	return 0, 0, fmt.Errorf("probe: %s did not start within %d segments", svc.Name, maxN)
}

// Thresholds recovers the pausing and resuming buffer thresholds from the
// on/off download pattern of a 10 Mbit/s run, using traffic analysis and
// the §2.5 buffer inference — no simulator internals.
func Thresholds(svc *services.Service) (pause, resume float64, err error) {
	res, err := expcache.RunService(svc, netem.Constant("probe10", 10e6, 600), 600, nil)
	if err != nil {
		return 0, 0, err
	}
	tr, err := traffic.Analyze(svc.Name, res.Transactions)
	if err != nil {
		return 0, 0, err
	}
	inf := qoe.Infer(tr, uimon.FromResult(res))
	gaps := videoGaps(tr, 2)
	if len(gaps) == 0 {
		return 0, 0, fmt.Errorf("probe: %s shows no on/off download pattern", svc.Name)
	}
	var ps, rs, n float64
	for _, g := range gaps {
		ps += bufferAt(inf.Buffer, g.Start)
		rs += bufferAt(inf.Buffer, g.End)
		n++
	}
	return ps / n, rs / n, nil
}

// videoGaps returns download pauses considering video segments only
// (audio fetches are tiny and can fall inside a video pause without
// meaning the controller resumed).
func videoGaps(tr *traffic.Result, minGap float64) []traffic.OnOff {
	var vid []traffic.SegmentDownload
	for _, s := range tr.Segments {
		if s.Type == media.TypeVideo {
			vid = append(vid, s)
		}
	}
	return traffic.DownloadGaps(vid, minGap)
}

func bufferAt(points []qoe.BufferPoint, t float64) float64 {
	best, dist := 0.0, math.Inf(1)
	for _, p := range points {
		if d := math.Abs(p.T - t); d < dist {
			dist, best = d, p.VideoSec
		}
	}
	return best
}

// Steady describes the steady-state behaviour under constant bandwidth.
type Steady struct {
	// Bandwidth is the constant link rate probed, bits/s.
	Bandwidth float64
	// ConvergedDeclared is the declared bitrate displayed most of the
	// time in the second half of the session.
	ConvergedDeclared float64
	// DistinctTracks counts tracks displayed in the second half; a
	// stable player converges to 1 (§3.3.3).
	DistinctTracks int
	// Switches counts displayed switches in the second half.
	Switches int
}

// SteadyState streams the service at a constant bandwidth and summarises
// the second half of the session.
func SteadyState(svc *services.Service, bw float64) (Steady, error) {
	res, err := expcache.RunService(svc, netem.Constant(fmt.Sprintf("const%.0f", bw/1e6), bw, 600), 600, nil)
	if err != nil {
		return Steady{}, err
	}
	return steadyFromResult(res, bw), nil
}

func steadyFromResult(res *player.Result, bw float64) Steady {
	st := Steady{Bandwidth: bw}
	half := res.SegmentCount / 2
	seen := map[int]float64{}
	prev := -1
	lastPlayed := -1
	for i, tr := range res.Displayed {
		if tr >= 0 {
			lastPlayed = i
		}
		_ = i
	}
	from := lastPlayed / 2
	if from < half/8 {
		from = lastPlayed / 2
	}
	for i := from; i <= lastPlayed; i++ {
		tr := res.Displayed[i]
		if tr < 0 {
			continue
		}
		seen[tr] += res.SegmentDuration
		if prev >= 0 && tr != prev {
			st.Switches++
		}
		prev = tr
	}
	best, bestSec := -1, 0.0
	for tr, sec := range seen {
		if sec > bestSec {
			best, bestSec = tr, sec
		}
	}
	st.DistinctTracks = len(seen)
	if best >= 0 {
		st.ConvergedDeclared = res.Declared[best]
	}
	return st
}

// StartupTrack returns the declared bitrate of the first video segment a
// service fetches (§3.3.1: "each app consistently selects the same track
// level across different runs").
func StartupTrack(svc *services.Service) (float64, error) {
	res, err := expcache.RunService(svc, netem.Constant("probe5", 5e6, 120), 60, nil)
	if err != nil {
		return 0, err
	}
	for _, d := range res.Downloads {
		if d.Type == media.TypeVideo {
			return d.Declared, nil
		}
	}
	return 0, fmt.Errorf("probe: %s downloaded no video", svc.Name)
}

// Row is one service's black-box-probed Table 1 row.
type Row struct {
	// Service is the paper identifier.
	Service string
	// SegmentDuration is the video segment duration read from traffic.
	SegmentDuration float64
	// SeparateAudio reports separate audio tracks in the manifest.
	SeparateAudio bool
	// MaxConns is the peak number of concurrent transfers observed.
	MaxConns int
	// Persistent is inferred from the player configuration model of TCP
	// reuse (observable as handshake counts in real traffic).
	Persistent bool
	// StartupSegments and StartupBufferSec come from the rejection probe.
	StartupSegments  int
	StartupBufferSec float64
	// StartupBitrate is the declared bitrate of the first segment.
	StartupBitrate float64
	// PauseSec/ResumeSec are the probed download-control thresholds.
	PauseSec, ResumeSec float64
	// Stable reports convergence at constant bandwidth.
	Stable bool
	// Aggressive reports converged declared ≥ 90% of the link rate.
	Aggressive bool
}

// Table1 probes one service end to end.
func Table1(svc *services.Service) (Row, error) {
	row := Row{Service: svc.Name, Persistent: svc.Player.Persistent}

	// Structural facts from a short run's traffic.
	res, err := expcache.RunService(svc, netem.Constant("probe5", 5e6, 600), 90, nil)
	if err != nil {
		return row, err
	}
	tr, err := traffic.Analyze(svc.Name, res.Transactions)
	if err != nil {
		return row, err
	}
	row.SeparateAudio = len(tr.Presentation.Audio) > 0
	if len(tr.Presentation.Video) > 0 {
		for _, r := range tr.Presentation.Video {
			if r.SegmentDuration > row.SegmentDuration {
				row.SegmentDuration = r.SegmentDuration
			}
		}
	}
	row.MaxConns = maxConcurrent(res.Transactions)

	if row.StartupSegments, row.StartupBufferSec, err = StartupBuffer(svc, 64); err != nil {
		return row, err
	}
	if row.StartupBitrate, err = StartupTrack(svc); err != nil {
		return row, err
	}
	if row.PauseSec, row.ResumeSec, err = Thresholds(svc); err != nil {
		return row, err
	}

	st, err := SteadyState(svc, 2e6)
	if err != nil {
		return row, err
	}
	row.Stable = st.DistinctTracks <= 1 || st.Switches <= 1
	row.Aggressive = st.ConvergedDeclared >= 0.85*st.Bandwidth
	return row, nil
}

// maxConcurrent counts the peak number of overlapping transactions.
func maxConcurrent(txs []traffic.Transaction) int {
	type ev struct {
		t     float64
		delta int
	}
	var evs []ev
	for _, tx := range txs {
		if tx.Rejected {
			continue
		}
		evs = append(evs, ev{tx.Start, 1}, ev{tx.End, -1})
	}
	// insertion sort by time, ends before starts at equal times
	for i := 1; i < len(evs); i++ {
		//vodlint:allow floateq — sort tie-break on stored event times, intentionally exact
		for j := i; j > 0 && (evs[j].t < evs[j-1].t || (evs[j].t == evs[j-1].t && evs[j].delta < evs[j-1].delta)); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	cur, max := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > max {
			max = cur
		}
	}
	return max
}

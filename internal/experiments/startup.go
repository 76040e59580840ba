package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/expcache"
	"repro/internal/netem"
	"repro/internal/services"
	"repro/internal/textplot"
)

// Fig14 reproduces Figure 14: H3 (9 s segments, playback after a single
// segment, ~1 Mbit/s startup track) stalls right after starting on a low-
// bandwidth profile, while H2 (2 s segments, 4-segment startup) on the
// same network does not.
func Fig14(ctx context.Context) ([]*textplot.Table, []string, error) {
	t := &textplot.Table{
		Title: "Figure 14 — startup stalls: H3 (1×9 s startup segment, 1.05 Mbps track) vs H2 (4×2 s, 1.33 Mbps)",
		Note:  "30 marginal ~0.9 Mbit/s profiles (the paper's \"certain network bandwidth profiles\"); early stall = within 30 s of playback start",
		Header: []string{"service", "runs", "early-stall ratio", "any-stall ratio",
			"avg startup delay (s)", "avg first-stall time (s)"},
	}
	// Bandwidth hovers just below H3's 1.05 Mbit/s startup track but
	// above H2's 0.8 Mbit/s bottom track — H3's single 9 s startup
	// segment then drains before the second segment lands (the exact
	// mechanism of Figure 14) while H2 streams its bottom track safely.
	var minis []*netem.Profile
	rng := rand.New(rand.NewSource(1414))
	for i := 0; i < 30; i++ {
		p := &netem.Profile{Name: fmt.Sprintf("marginal-%02d", i+1), SampleDur: 1}
		for t := 0; t < 60; t++ {
			p.Samples = append(p.Samples, 0.9e6*(0.92+0.16*rng.Float64()))
		}
		minis = append(minis, p)
	}
	var plots []string
	for _, name := range []string{"H3", "H2"} {
		svc := services.ByName(name)
		org, err := serviceOrigin(svc)
		if err != nil {
			return nil, nil, err
		}
		early, any, runs := 0, 0, 0
		var delays, firsts []float64
		for mi, mp := range minis {
			res, err := expcache.Run(svc.Player, org, mp, 60, nil)
			if err != nil {
				return nil, nil, err
			}
			runs++
			if res.StartupDelay >= 0 {
				delays = append(delays, res.StartupDelay)
			}
			if len(res.Stalls) > 0 {
				any++
				firsts = append(firsts, res.Stalls[0].Start)
				if res.StartupDelay >= 0 && res.Stalls[0].Start < res.StartupDelay+30 {
					early++
				}
			}
			if name == "H3" && early == 1 && len(plots) == 0 {
				var xs, vb []float64
				for _, s := range res.Samples {
					xs = append(xs, s.T)
					vb = append(vb, s.VideoSec)
				}
				plots = append(plots, textplot.Plot(
					fmt.Sprintf("Figure 14 — H3 video buffer on slice %d (stall right after startup)", mi+1), 72, 10,
					textplot.Series{Name: "video buffer (s)", X: xs, Y: vb}))
			}
		}
		t.AddRow(name, fmt.Sprintf("%d", runs),
			textplot.Pct(float64(early)/float64(runs)),
			textplot.Pct(float64(any)/float64(runs)),
			textplot.Secs(textplot.Mean(delays)),
			textplot.Secs(textplot.Mean(firsts)),
		)
	}
	return []*textplot.Table{t}, plots, nil
}

// Fig15 reproduces Figure 15: startup delay and stall ratio as a function
// of segment duration, startup track bitrate and startup segment count,
// over 50 one-minute slices of the 5 lowest-bandwidth profiles. The paper
// finds (i) shorter segments stall less for the same startup duration,
// (ii) 2–3 startup segments cut the stall ratio sharply vs 1, and (iii)
// high startup tracks raise both delay and stalls.
func Fig15(ctx context.Context) ([]*textplot.Table, []string, error) {
	// 50 one-minute profiles from the 5 lowest cellular traces.
	var minis []*netem.Profile
	for _, p := range netem.CanonicalCellularSet()[:5] {
		for _, m := range p.Split(60) {
			minis = append(minis, m)
		}
	}
	if len(minis) > 50 {
		minis = minis[:50]
	}

	type setting struct {
		segDur   float64
		track    int // ladder index for the startup track
		trackBps float64
	}
	settings := []setting{
		{4, 2, 0.6e6}, // label uses ladder declared below
		{4, 3, 1.0e6},
		{8, 2, 0.6e6},
		{8, 3, 1.0e6},
	}
	t := &textplot.Table{
		Title:  "Figure 15 — startup delay and stall ratio (50 × 1-minute low-bandwidth profiles)",
		Header: []string{"segment dur", "startup track", "startup segments", "avg startup delay (s)", "stall ratio"},
	}
	type combo struct {
		set  setting
		nseg int
	}
	var combos []combo
	for _, st := range settings {
		// Build each segment duration's content up front (cached), so
		// concurrent combos share the origin instead of racing to build it.
		if _, err := exoContent(st.segDur, 99); err != nil {
			return nil, nil, err
		}
		for _, nseg := range []int{1, 2, 3, 4} {
			combos = append(combos, combo{st, nseg})
		}
	}
	rows, err := sweep(ctx, combos, func(c combo) ([]string, error) {
		org, err := exoContent(c.set.segDur, 99)
		if err != nil {
			return nil, err
		}
		declared := org.Pres.Video[c.set.track].DeclaredBitrate
		var delays []float64
		stalled := 0
		runs := 0
		for _, mp := range minis {
			cfg := exoPlayer("exo15")
			cfg.StartupTrack = c.set.track
			cfg.StartupBufferSec = c.set.segDur * float64(c.nseg)
			cfg.StartupSegments = c.nseg
			res, err := expcache.Run(cfg, org, mp, 60, nil)
			if err != nil {
				return nil, err
			}
			runs++
			if res.StartupDelay >= 0 {
				delays = append(delays, res.StartupDelay)
			}
			if len(res.Stalls) > 0 {
				stalled++
			}
		}
		return []string{
			fmt.Sprintf("%.0fs", c.set.segDur),
			fmt.Sprintf("%.1f Mbps", declared/1e6),
			fmt.Sprintf("%d", c.nseg),
			textplot.Secs(textplot.Mean(delays)),
			textplot.Pct(float64(stalled) / float64(runs)),
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*textplot.Table{t}, nil, nil
}

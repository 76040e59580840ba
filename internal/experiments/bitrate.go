package experiments

import (
	"context"
	"fmt"

	"repro/internal/adaptation"
	"repro/internal/expcache"
	"repro/internal/modify"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/player"
	"repro/internal/services"
	"repro/internal/textplot"
)

// Fig12 reproduces the §4.2 manifest-variant probe on D2 (Figure 12) and
// its bandwidth-utilisation measurement: D2 selects the same level for
// both variants (it only reads the declared bitrate) and achieves ~34%
// link utilisation at a constant 2 Mbit/s.
func Fig12(ctx context.Context) ([]*textplot.Table, []string, error) {
	d2 := services.ByName("D2")
	org, err := serviceOrigin(d2)
	if err != nil {
		return nil, nil, err
	}
	shifted, err := origin.New(modify.ShiftVariants(org.Pres))
	if err != nil {
		return nil, nil, err
	}
	dropped, err := origin.New(modify.DropLowest(org.Pres))
	if err != nil {
		return nil, nil, err
	}
	t := &textplot.Table{
		Title:  "Figure 12 — D2 with shifted vs dropped manifest variants",
		Note:   "same declared ladder, actual bitrates one rung apart; identical selections ⇒ declared-only adaptation",
		Header: []string{"bandwidth (Mbps)", "variant-1 level (shifted)", "variant-2 level (dropped)", "same level"},
	}
	same := true
	for _, bw := range []float64{1.4e6, 2.6e6, 4.5e6, 5.5e6} {
		p := netem.Constant("const", bw, 600)
		adjust := func(c *player.Config) {
			if c.StartupTrack >= len(shifted.Pres.Video) {
				c.StartupTrack = len(shifted.Pres.Video) - 1
			}
		}
		r1, err := expcache.Run(d2.Player, shifted, p, 300, adjust)
		if err != nil {
			return nil, nil, err
		}
		r2, err := expcache.Run(d2.Player, dropped, p, 300, adjust)
		if err != nil {
			return nil, nil, err
		}
		l1, l2 := steadyLevel(r1), steadyLevel(r2)
		if l1 != l2 {
			same = false
		}
		t.AddRow(textplot.Mbps(bw), fmt.Sprintf("%d", l1), fmt.Sprintf("%d", l2), textplot.YN(l1 == l2))
	}
	_ = same

	// Utilisation at a stable 2 Mbit/s (paper: 33.7%).
	res, err := run(d2, netem.Constant("const2", 2e6, 600), 600)
	if err != nil {
		return nil, nil, err
	}
	util := steadyUtilisation(res, 2e6)
	t2 := &textplot.Table{
		Title:  "§4.2 — D2 bandwidth utilisation at constant 2 Mbit/s",
		Header: []string{"metric", "value"},
	}
	t2.AddRow("steady-phase achieved throughput / bandwidth", textplot.Pct(util))
	return []*textplot.Table{t, t2}, nil, nil
}

// steadyUtilisation measures downloaded bits over wall time in the second
// half of the session against the available bandwidth.
func steadyUtilisation(res *player.Result, bw float64) float64 {
	from := res.EndTime / 2
	bits := 0.0
	for _, d := range res.Downloads {
		if d.End > from {
			bits += d.Bytes * 8
		}
	}
	return bits / ((res.EndTime - from) * bw)
}

// Fig13 reproduces Figure 13: the ExoPlayer-model player on a 7-track
// VBR ladder whose declared bitrate is 2× the average actual bitrate,
// with the default (declared-only) vs actual-bitrate-aware adaptation,
// over the 14 profiles. Considering actual bitrates cuts low-track time
// sharply (paper: ≥43% less bottom-track time on the 3 lowest profiles,
// median +10.22% average bitrate, stalls unchanged).
func Fig13(ctx context.Context) ([]*textplot.Table, []string, error) {
	org, err := exoContent(4, 77)
	if err != nil {
		return nil, nil, err
	}
	variants := []struct {
		name string
		mut  func(*player.Config)
	}{
		{"declared only (ExoPlayer default)", func(c *player.Config) {}},
		{"actual-bitrate aware", func(c *player.Config) {
			c.ExposeSegmentSizes = true
			c.Algorithm = adaptation.Hysteresis{
				Factor: 0.75, MinBufferForUp: 10, MaxBufferForDown: 25,
				UseActual: true, Horizon: 3,
			}
		}},
	}
	type agg struct {
		rate, low, lowest, stall []float64
	}
	var aggs []agg
	for _, v := range variants {
		var a agg
		for _, p := range netem.CanonicalCellularSet() {
			cfg := exoPlayer("exo13")
			v.mut(&cfg)
			res, err := expcache.Run(cfg, org, p, 600, nil)
			if err != nil {
				return nil, nil, err
			}
			rep := displayedStats(res)
			a.rate = append(a.rate, rep.avg)
			a.low = append(a.low, lowTrackShare(res, 2))
			a.lowest = append(a.lowest, lowTrackShare(res, 1))
			a.stall = append(a.stall, res.Summary.StallSec)
		}
		aggs = append(aggs, a)
	}
	t := &textplot.Table{
		Title:  "Figure 13 — declared-only vs actual-bitrate-aware adaptation (14 profiles)",
		Header: []string{"variant", "median avg bitrate (Mbps)", "median Δbitrate", "lowest-track share (3 low profiles)", "low-track share (median)", "median stall s"},
	}
	for vi, v := range variants {
		a := aggs[vi]
		var dRate []float64
		for i := range a.rate {
			dRate = append(dRate, a.rate[i]/aggs[0].rate[i]-1)
		}
		low3 := textplot.Mean(a.lowest[:3])
		t.AddRow(v.name,
			textplot.Mbps(textplot.Median(a.rate)),
			textplot.Pct(textplot.Median(dRate)),
			textplot.Pct(low3),
			textplot.Pct(textplot.Median(a.low)),
			textplot.Secs(textplot.Median(a.stall)),
		)
	}
	return []*textplot.Table{t}, nil, nil
}

type dispStats struct{ avg float64 }

func displayedStats(res *player.Result) dispStats {
	var w, dur float64
	for i, tr := range res.Displayed {
		if tr < 0 {
			continue
		}
		d := res.SegmentDuration
		if start := float64(i) * res.SegmentDuration; start+d > res.MediaDuration {
			d = res.MediaDuration - start
		}
		w += res.Declared[tr] * d
		dur += d
	}
	if dur == 0 {
		return dispStats{}
	}
	return dispStats{avg: w / dur}
}

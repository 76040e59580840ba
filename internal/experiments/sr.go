package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/expcache"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/player"
	"repro/internal/replacement"
	"repro/internal/services"
	"repro/internal/textplot"
)

// srRunStats summarises segment-replacement behaviour in one session.
type srRunStats struct {
	replacements int // re-downloads of an already-downloaded index
	lower        int // re-download at lower quality than what it replaced
	equal        int
	firstLowerEq int // SR bursts whose first replaced segment did not improve
	bursts       int
	dataBytes    float64 // total bytes downloaded
	baseBytes    float64 // bytes without the re-downloads (no-SR baseline)
	avgBitrate   float64 // displayed average declared bitrate
	baseBitrate  float64 // what-if average with only first downloads kept
	stallSec     float64
	wasted       float64
}

// srStats runs a service over a profile and performs the §4.1.1 what-if
// analysis: the no-SR baseline keeps only the first download of each
// index.
func srStats(svc *services.Service, p *netem.Profile) (srRunStats, error) {
	res, err := run(svc, p, 600)
	if err != nil {
		return srRunStats{}, err
	}
	return srStatsFromResult(res), nil
}

func srStatsFromResult(res *player.Result) srRunStats {
	st := srRunStats{
		dataBytes: res.Summary.TotalBytes,
		baseBytes: res.Summary.TotalBytes,
		stallSec:  res.Summary.StallSec,
		wasted:    res.Summary.WastedBytes,
	}
	first := map[int]int{} // index -> track of its first download
	inBurst := false
	seen := map[int]int{} // index -> latest track downloaded
	for _, d := range res.Downloads {
		if d.Type != media.TypeVideo || d.End <= 0 {
			continue
		}
		prev, again := seen[d.Index]
		if again {
			st.replacements++
			st.baseBytes -= d.Bytes
			switch {
			case d.Track < prev:
				st.lower++
			case d.Track == prev:
				st.equal++
			}
			if !inBurst {
				st.bursts++
				if d.Track <= prev {
					st.firstLowerEq++
				}
				inBurst = true
			}
		} else {
			first[d.Index] = d.Track
			inBurst = false
		}
		seen[d.Index] = d.Track
	}
	// Displayed average (actual run) and what-if baseline using the
	// first download per displayed index.
	var w, wBase, dur float64
	for i, tr := range res.Displayed {
		if tr < 0 {
			continue
		}
		d := res.SegmentDuration
		if start := float64(i) * res.SegmentDuration; start+d > res.MediaDuration {
			d = res.MediaDuration - start
		}
		w += res.Declared[tr] * d
		base := tr
		if f, ok := first[i]; ok {
			base = f
		}
		wBase += res.Declared[base] * d
		dur += d
	}
	if dur > 0 {
		st.avgBitrate = w / dur
		st.baseBitrate = wBase / dur
	}
	return st
}

// Fig10 reproduces Figure 10: on a step-up profile, H4 triggers SR as
// soon as it switches to a higher track, discards the tail of its buffer
// (including higher-quality segments) and re-downloads it, sometimes at
// lower quality and sometimes stalling itself.
func Fig10(ctx context.Context) ([]*textplot.Table, []string, error) {
	h4 := services.ByName("H4")
	// High → low → brief recovery → low: the recovery triggers the
	// up-switch and SR, which dumps the buffered tail right before the
	// second dip — the self-inflicted stall of Figure 10.
	p := &netem.Profile{Name: "dip-recover-dip"}
	for i := 0; i < 600; i++ {
		switch {
		case i < 150:
			p.Samples = append(p.Samples, 5e6)
		case i < 270:
			p.Samples = append(p.Samples, 0.8e6)
		case i < 278:
			p.Samples = append(p.Samples, 5e6)
		case i < 420:
			p.Samples = append(p.Samples, 0.4e6)
		default:
			p.Samples = append(p.Samples, 5e6)
		}
	}
	res, err := run(h4, p, 600)
	if err != nil {
		return nil, nil, err
	}
	st := srStatsFromResult(res)
	org, err := serviceOrigin(h4)
	if err != nil {
		return nil, nil, err
	}
	noSR, err := expcache.Run(h4.Player, org, p, 600, func(c *player.Config) {
		c.Replacement = replacement.None{}
	})
	if err != nil {
		return nil, nil, err
	}
	t := &textplot.Table{
		Title:  "Figure 10 — H4 segment replacement on a recovery profile",
		Header: []string{"metric", "value"},
	}
	t.AddRow("SR bursts", fmt.Sprintf("%d", st.bursts))
	t.AddRow("segments re-downloaded", fmt.Sprintf("%d", st.replacements))
	t.AddRow("re-downloads at lower quality", fmt.Sprintf("%d", st.lower))
	t.AddRow("re-downloads at equal quality", fmt.Sprintf("%d", st.equal))
	t.AddRow("stall seconds (with SR)", textplot.Secs(st.stallSec))
	t.AddRow("stall seconds (same run without SR)", textplot.Secs(noSR.Summary.StallSec))
	t.AddRow("wasted MB", fmt.Sprintf("%.1f", st.wasted/1e6))

	// Event excerpt around the replacements.
	t2 := &textplot.Table{
		Title:  "Figure 10 — SR event timeline (excerpt)",
		Header: []string{"t (s)", "event", "detail"},
	}
	n := 0
	for _, e := range res.Events {
		if e.Kind == "sr-drop" || e.Kind == "stall" || e.Kind == "switch" {
			t2.AddRow(fmt.Sprintf("%.1f", e.T), e.Kind, e.Detail())
			n++
			if n >= 18 {
				break
			}
		}
	}
	return []*textplot.Table{t, t2}, nil, nil
}

// SRWhatIf reproduces the §4.1.1 numbers: across the 14 profiles,
// H4-style SR increases data usage substantially (paper: median +25.66%,
// 5 profiles >75%) for marginal quality gain (median +3.66%), and can
// even lower quality; 21.31%/6.50% of replacements were lower/equal
// quality.
func SRWhatIf(ctx context.Context) ([]*textplot.Table, []string, error) {
	t := &textplot.Table{
		Title:  "§4.1.1 — what-if analysis of H4-style SR over 14 profiles",
		Header: []string{"service", "median Δdata", "max Δdata", "median Δbitrate", "min Δbitrate", "% repl lower", "% repl equal", "% bursts starting ≤"},
	}
	for _, name := range []string{"H1", "H4"} {
		svc := services.ByName(name)
		var dData, dRate []float64
		var repl, lower, equal, bursts, firstLE int
		for _, p := range netem.CanonicalCellularSet() {
			st, err := srStats(svc, p)
			if err != nil {
				return nil, nil, err
			}
			if st.baseBytes > 0 {
				dData = append(dData, st.dataBytes/st.baseBytes-1)
			}
			if st.baseBitrate > 0 {
				dRate = append(dRate, st.avgBitrate/st.baseBitrate-1)
			}
			repl += st.replacements
			lower += st.lower
			equal += st.equal
			bursts += st.bursts
			firstLE += st.firstLowerEq
		}
		pct := func(n, d int) string {
			if d == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(d))
		}
		sort.Float64s(dRate)
		t.AddRow(name,
			textplot.Pct(textplot.Median(dData)),
			textplot.Pct(textplot.Percentile(dData, 100)),
			textplot.Pct(textplot.Median(dRate)),
			textplot.Pct(dRate[0]),
			pct(lower, repl),
			pct(equal, repl),
			pct(firstLE, bursts),
		)
	}
	return []*textplot.Table{t}, nil, nil
}

// Fig11 reproduces Figure 11 and the §4.1.3 evaluation: per-segment SR
// (replace individually, only upward, stop when the buffer is low) cuts
// the time spent on low tracks sharply; the capped variant keeps most of
// the benefit while cutting wasted data (paper: −44% waste).
func Fig11(ctx context.Context) ([]*textplot.Table, []string, error) {
	org, err := exoContent(4, 42)
	if err != nil {
		return nil, nil, err
	}
	policies := []struct {
		name string
		mut  func(*player.Config)
	}{
		{"no SR", func(c *player.Config) {}},
		{"improved per-segment SR", func(c *player.Config) {
			c.Replacement = replacement.PerSegment{MinBufferSec: 30, CapTrack: -1}
			c.MidBufferDiscard = true
		}},
		{"capped SR (≤720p rung)", func(c *player.Config) {
			c.Replacement = replacement.PerSegment{MinBufferSec: 30, CapTrack: 3}
			c.MidBufferDiscard = true
		}},
	}
	t := &textplot.Table{
		Title:  "Figure 11 / §4.1.3 — per-segment SR vs no SR (ExoPlayer model, 14 profiles)",
		Header: []string{"policy", "median avg bitrate (Mbps)", "median Δbitrate", "p90 Δbitrate", "median Δdata", "waste % of data", "low-track share (5 low profiles)", "median stall s"},
	}
	base := map[int]srRunStats{}
	type agg struct {
		rate, data, waste, low, stall []float64
	}
	var aggs []agg
	for pi, pol := range policies {
		var a agg
		for i, p := range netem.CanonicalCellularSet() {
			cfg := exoPlayer("exo-" + pol.name)
			pol.mut(&cfg)
			res, err := expcache.Run(cfg, org, p, 600, nil)
			if err != nil {
				return nil, nil, err
			}
			st := srStatsFromResult(res)
			if pi == 0 {
				base[i] = st
			}
			a.rate = append(a.rate, st.avgBitrate)
			a.data = append(a.data, st.dataBytes)
			a.waste = append(a.waste, st.wasted/st.dataBytes)
			a.low = append(a.low, lowTrackShare(res, 2)) // tracks 0..1 ≈ below 480p
			a.stall = append(a.stall, st.stallSec)
		}
		aggs = append(aggs, a)
	}
	for pi, pol := range policies {
		a := aggs[pi]
		var dRate, dData []float64
		for i := range a.rate {
			dRate = append(dRate, a.rate[i]/aggs[0].rate[i]-1)
			dData = append(dData, a.data[i]/aggs[0].data[i]-1)
		}
		t.AddRow(pol.name,
			textplot.Mbps(textplot.Median(a.rate)),
			textplot.Pct(textplot.Median(dRate)),
			textplot.Pct(textplot.Percentile(dRate, 90)),
			textplot.Pct(textplot.Median(dData)),
			textplot.Pct(textplot.Median(a.waste)),
			textplot.Pct(textplot.Mean(a.low[:5])),
			textplot.Secs(textplot.Median(a.stall)),
		)
	}
	// Per-profile breakdown — the bar pairs of Figure 11.
	t2 := &textplot.Table{
		Title:  "Figure 11 — per-profile low-track playtime share and bitrate gain",
		Note:   "each row pairs the no-SR run (left) with improved per-segment SR (right), like Figure 11's bar pairs",
		Header: []string{"profile", "low-track share (no SR)", "low-track share (SR)", "Δavg bitrate", "Δdata"},
	}
	for i := range netem.CanonicalCellularSet() {
		t2.AddRow(fmt.Sprintf("%d", i+1),
			textplot.Pct(aggs[0].low[i]),
			textplot.Pct(aggs[1].low[i]),
			textplot.Pct(aggs[1].rate[i]/aggs[0].rate[i]-1),
			textplot.Pct(aggs[1].data[i]/aggs[0].data[i]-1),
		)
	}
	return []*textplot.Table{t, t2}, nil, nil
}

// lowTrackShare returns the share of displayed playtime on tracks with
// index < below.
func lowTrackShare(res *player.Result, below int) float64 {
	low, total := 0.0, 0.0
	for _, tr := range res.Displayed {
		if tr < 0 {
			continue
		}
		total++
		if tr < below {
			low++
		}
	}
	if total == 0 {
		return 0
	}
	return low / total
}

package experiments

import (
	"context"
	"fmt"

	"repro/internal/adaptation"
	"repro/internal/energy"
	"repro/internal/expcache"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/player"
	"repro/internal/qoe"
	"repro/internal/replacement"
	"repro/internal/services"
	"repro/internal/simnet"
	"repro/internal/textplot"
)

// The paper defers several quantitative questions to future work or
// side remarks; these ablations answer them with the same apparatus:
//
//	abl_energy     §3.3.2 — pause/resume gap vs radio energy
//	abl_segdur     §3.1   — segment duration tradeoff
//	abl_split      §3.2   — sub-segment split-point sensitivity (D3)
//	abl_srcap      §4.1.3 — SR cap-threshold sweep
//	abl_algorithms §5     — adaptation algorithm shoot-out
//	abl_recovery   §4.3   — stall-recovery gating

// AblEnergy quantifies §3.3.2's energy remark: services whose pause and
// resume thresholds sit within the LTE RRC demotion timer keep the radio
// in its high-power state through every download pause; widening the gap
// beyond the timer lets the radio demote and saves energy.
func AblEnergy(ctx context.Context) ([]*textplot.Table, []string, error) {
	model := energy.DefaultLTE()
	t := &textplot.Table{
		Title: "Ablation §3.3.2 — download-control thresholds vs radio energy (10 Mbit/s, 600 s)",
		Note:  fmt.Sprintf("LTE model: demotion timer %.0f s, active %.1f W, tail %.1f W, idle %.0f mW", model.DemotionTimer, model.ActivePower, model.TailPower, model.IdlePower*1e3),
		Header: []string{"service", "pause−resume gap (s)", "demotions", "high-power share",
			"energy (J)", "energy with gap=25 s", "saving"},
	}
	p := netem.Constant("c10", 10e6, 600)
	for _, svc := range allServices() {
		org, err := serviceOrigin(svc)
		if err != nil {
			return nil, nil, err
		}
		res, err := expcache.Run(svc.Player, org, p, 600, nil)
		if err != nil {
			return nil, nil, err
		}
		u := model.Analyze(res.Transactions, res.EndTime)

		// What-if: widen the gap past the demotion timer by lowering the
		// resume threshold (same pause threshold, same QoE headroom).
		wide := svc.Player
		wide.ResumeThresholdSec = wide.PauseThresholdSec - 25
		if wide.ResumeThresholdSec < 4 {
			wide.ResumeThresholdSec = 4
		}
		res2, err := expcache.Run(wide, org, p, 600, nil)
		if err != nil {
			return nil, nil, err
		}
		u2 := model.Analyze(res2.Transactions, res2.EndTime)

		gap := svc.Player.PauseThresholdSec - svc.Player.ResumeThresholdSec
		saving := 1 - u2.Joules/u.Joules
		t.AddRow(svc.Name,
			fmt.Sprintf("%.0f", gap),
			fmt.Sprintf("%d", u.Demotions),
			textplot.Pct(u.HighPowerShare()),
			fmt.Sprintf("%.0f", u.Joules),
			fmt.Sprintf("%.0f", u2.Joules),
			textplot.Pct(saving),
		)
	}
	return []*textplot.Table{t}, nil, nil
}

// AblSegDur explores §3.1's deferred tradeoff: shorter segments adapt at
// finer granularity (less low-track time, fewer startup stalls) but cost
// more requests (per-request latency overhead); long segments amortise
// requests but react slowly.
func AblSegDur(ctx context.Context) ([]*textplot.Table, []string, error) {
	t := &textplot.Table{
		Title:  "Ablation §3.1 — segment duration tradeoff (ExoPlayer model, 14 profiles, medians)",
		Header: []string{"segment dur", "requests", "avg bitrate (Mbps)", "stall s", "switches", "low-track share (5 low profiles)"},
	}
	for _, segDur := range []float64{2, 4, 6, 10} {
		org, err := exoContent(segDur, 55)
		if err != nil {
			return nil, nil, err
		}
		var reqs, rate, stall, switches []float64
		var low []float64
		for _, p := range netem.CanonicalCellularSet() {
			cfg := exoPlayer(fmt.Sprintf("seg%.0f", segDur))
			res, err := expcache.Run(cfg, org, p, 600, nil)
			if err != nil {
				return nil, nil, err
			}
			rep := qoe.FromResult(res)
			reqs = append(reqs, float64(len(res.Transactions)))
			rate = append(rate, rep.AvgBitrate)
			stall = append(stall, rep.StallSec)
			switches = append(switches, float64(rep.Switches))
			low = append(low, lowTrackShare(res, 2))
		}
		t.AddRow(fmt.Sprintf("%.0f s", segDur),
			fmt.Sprintf("%.0f", textplot.Median(reqs)),
			textplot.Mbps(textplot.Median(rate)),
			textplot.Secs(textplot.Median(stall)),
			fmt.Sprintf("%.0f", textplot.Median(switches)),
			textplot.Pct(textplot.Mean(low[:5])),
		)
	}
	return []*textplot.Table{t}, nil, nil
}

// AblSplit quantifies §3.2's split-point remark on D3. On a
// work-conserving shared link split points are irrelevant (bandwidth
// redistributes to unfinished parts), so the ablation adds heterogeneous
// per-connection bottlenecks (4 / 1.5 / 0.8 Mbit/s ceilings): a segment
// now completes only when its slowest part does, and pushing bytes onto
// the capped connections (positive skew) hurts, while weighting the fast
// connection (negative skew, approximating a bandwidth-proportional
// split) helps — exactly the paper's "split point shall be selected
// based on per connection bandwidth".
func AblSplit(ctx context.Context) ([]*textplot.Table, []string, error) {
	d3 := services.ByName("D3")
	org, err := serviceOrigin(d3)
	if err != nil {
		return nil, nil, err
	}
	t := &textplot.Table{
		Title:  "Ablation §3.2 — D3 split points under per-connection bottlenecks (profiles 4–7, medians)",
		Note:   "connection rate ceilings 4 / 1.5 / 0.8 Mbit/s; skew −0.4 ≈ bandwidth-proportional, 0 = equal, >0 inverted",
		Header: []string{"split skew", "avg bitrate (Mbps)", "stall s", "startup (s)", "median segment fetch (s)"},
	}
	netCfg := simnet.DefaultConfig()
	netCfg.ConnCapSequence = []float64{4e6, 1.5e6, 0.8e6}
	for _, skew := range []float64{-0.4, 0, 1, 2} {
		var rate, stall, startup, fetch []float64
		for _, p := range netem.CanonicalCellularSet()[3:7] {
			cfg := d3.Player
			cfg.SessionDuration = 600
			cfg.SplitSkew = skew
			// RunNet keys the cache on the custom netCfg (the split-point
			// ConnCapSequence) alongside the resolved player config.
			res, err := expcache.RunNet(cfg, org, p, netCfg)
			if err != nil {
				return nil, nil, err
			}
			rep := qoe.FromResult(res)
			rate = append(rate, rep.AvgBitrate)
			stall = append(stall, rep.StallSec)
			startup = append(startup, rep.StartupDelay)
			var times []float64
			for _, d := range res.Downloads {
				if d.End > 0 {
					times = append(times, d.End-d.Start)
				}
			}
			fetch = append(fetch, textplot.Median(times))
		}
		t.AddRow(fmt.Sprintf("%+.1f", skew),
			textplot.Mbps(textplot.Median(rate)),
			textplot.Secs(textplot.Median(stall)),
			textplot.Secs(textplot.Median(startup)),
			fmt.Sprintf("%.2f", textplot.Median(fetch)),
		)
	}
	return []*textplot.Table{t}, nil, nil
}

// AblSRCap sweeps the §4.1.3 replacement cap: which rung to stop
// replacing at, trading wasted data against low-track playtime ("further
// work is needed in fine tuning the threshold selection").
func AblSRCap(ctx context.Context) ([]*textplot.Table, []string, error) {
	org, err := exoContent(4, 42)
	if err != nil {
		return nil, nil, err
	}
	t := &textplot.Table{
		Title:  "Ablation §4.1.3 — SR cap threshold sweep (14 profiles, medians)",
		Header: []string{"cap rung", "avg bitrate (Mbps)", "Δdata vs no SR", "waste share", "low-track share (5 low profiles)"},
	}
	type agg struct{ rate, data, waste, low []float64 }
	run := func(cap int) (agg, error) {
		var a agg
		for _, p := range netem.CanonicalCellularSet() {
			cfg := exoPlayer("srcap")
			if cap >= -1 {
				cfg.Replacement = replacement.PerSegment{MinBufferSec: 30, CapTrack: cap}
				cfg.MidBufferDiscard = true
			}
			res, err := expcache.Run(cfg, org, p, 600, nil)
			if err != nil {
				return a, err
			}
			st := srStatsFromResult(res)
			a.rate = append(a.rate, st.avgBitrate)
			a.data = append(a.data, st.dataBytes)
			a.waste = append(a.waste, st.wasted/st.dataBytes)
			a.low = append(a.low, lowTrackShare(res, 2))
		}
		return a, nil
	}
	base, err := run(-2) // no SR at all
	if err != nil {
		return nil, nil, err
	}
	addRow := func(label string, a agg) {
		var dData []float64
		for i := range a.data {
			dData = append(dData, a.data[i]/base.data[i]-1)
		}
		t.AddRow(label,
			textplot.Mbps(textplot.Median(a.rate)),
			textplot.Pct(textplot.Median(dData)),
			textplot.Pct(textplot.Median(a.waste)),
			textplot.Pct(textplot.Mean(a.low[:5])),
		)
	}
	addRow("no SR", base)
	for _, cap := range []int{1, 2, 3, 4} {
		a, err := run(cap)
		if err != nil {
			return nil, nil, err
		}
		addRow(fmt.Sprintf("≤%d", cap), a)
	}
	uncapped, err := run(-1)
	if err != nil {
		return nil, nil, err
	}
	addRow("uncapped", uncapped)
	return []*textplot.Table{t}, nil, nil
}

// AblAlgorithms races the adaptation algorithms of the literature on
// identical content and traces: the deployed throughput rules, ExoPlayer
// hysteresis, BBA, FESTIVE and probe-and-adapt.
func AblAlgorithms(ctx context.Context) ([]*textplot.Table, []string, error) {
	org, err := exoContent(4, 31)
	if err != nil {
		return nil, nil, err
	}
	algos := []struct {
		name string
		mk   func() adaptation.Algorithm
		est  func() adaptation.Estimator
	}{
		{"throughput 0.75", func() adaptation.Algorithm { return adaptation.Throughput{Factor: 0.75} }, nil},
		{"ExoPlayer hysteresis", func() adaptation.Algorithm { return adaptation.DefaultHysteresis() }, nil},
		{"buffer-based (BBA)", func() adaptation.Algorithm { return adaptation.BufferBased{Reservoir: 8, Cushion: 40} }, nil},
		{"FESTIVE", func() adaptation.Algorithm { return adaptation.NewFestive() },
			func() adaptation.Estimator { return adaptation.NewSlidingHarmonic(10) }},
		{"probe-and-adapt", func() adaptation.Algorithm { return adaptation.ProbeAdapt{} }, nil},
	}
	t := &textplot.Table{
		Title:  "Ablation — adaptation algorithms (ExoPlayer-model player, 14 profiles, medians)",
		Header: []string{"algorithm", "avg bitrate (Mbps)", "stall s", "switches", "low-track share (5 low profiles)"},
	}
	type job struct{ ai, pi int }
	var jobs []job
	for ai := range algos {
		for pi := range netem.CanonicalCellularSet() {
			jobs = append(jobs, job{ai, pi})
		}
	}
	type stats struct{ rate, stall, switches, low float64 }
	perRun, err := sweep(ctx, jobs, func(j job) (stats, error) {
		a := algos[j.ai]
		cfg := exoPlayer(a.name)
		cfg.Algorithm = a.mk()
		if a.est != nil {
			cfg.Estimator = a.est()
		}
		res, err := expcache.Run(cfg, org, netem.CanonicalCellularSet()[j.pi], 600, nil)
		if err != nil {
			return stats{}, err
		}
		rep := qoe.FromResult(res)
		return stats{rep.AvgBitrate, rep.StallSec, float64(rep.Switches), lowTrackShare(res, 2)}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	nProfiles := len(netem.CanonicalCellularSet())
	for ai, a := range algos {
		var rate, stall, switches, low []float64
		for pi := 0; pi < nProfiles; pi++ {
			s := perRun[ai*nProfiles+pi]
			rate = append(rate, s.rate)
			stall = append(stall, s.stall)
			switches = append(switches, s.switches)
			low = append(low, s.low)
		}
		t.AddRow(a.name,
			textplot.Mbps(textplot.Median(rate)),
			textplot.Secs(textplot.Median(stall)),
			fmt.Sprintf("%.0f", textplot.Median(switches)),
			textplot.Pct(textplot.Mean(low[:5])),
		)
	}
	return []*textplot.Table{t}, nil, nil
}

// AblRecovery applies §4.3's closing remark: the startup suggestions
// (2–3 segments before playing) also apply to stall recovery. H5 — whose
// high bottom track makes it stall on the lowest profiles — is rerun
// with 1-, 2- and 3-segment recovery gates: a larger gate trades a
// longer individual rebuffer for fewer immediate re-stalls.
func AblRecovery(ctx context.Context) ([]*textplot.Table, []string, error) {
	h5 := services.ByName("H5")
	org, err := serviceOrigin(h5)
	if err != nil {
		return nil, nil, err
	}
	t := &textplot.Table{
		Title:  "Ablation §4.3 — H5 stall recovery gate (profiles 1–3)",
		Header: []string{"recovery gate", "stalls", "repeat stalls (<20 s apart)", "total stall s", "mean stall gap (s)"},
	}
	for _, nseg := range []int{1, 2, 3} {
		stalls, repeats := 0, 0
		var stallSec, gaps []float64
		for _, p := range netem.CanonicalCellularSet()[:3] {
			res, err := expcache.Run(h5.Player, org, p, 600, func(c *player.Config) {
				c.RecoverySec = h5.Media.SegmentDuration * float64(nseg)
				c.RecoverySegments = nseg
			})
			if err != nil {
				return nil, nil, err
			}
			stalls += len(res.Stalls)
			stallSec = append(stallSec, res.TotalStall())
			for i := 1; i < len(res.Stalls); i++ {
				gap := res.Stalls[i].Start - res.Stalls[i-1].End
				gaps = append(gaps, gap)
				if gap < 20 {
					repeats++
				}
			}
		}
		t.AddRow(fmt.Sprintf("%d segment(s)", nseg),
			fmt.Sprintf("%d", stalls),
			fmt.Sprintf("%d", repeats),
			textplot.Secs(textplot.Mean(stallSec)*3),
			textplot.Secs(textplot.Mean(gaps)),
		)
	}
	return []*textplot.Table{t}, nil, nil
}

// AblAbandon quantifies the other side of §3.3.2's pausing-threshold
// tradeoff: "a high pausing threshold … may lead to more data wastage
// when users abort the playback". Sessions are cut off mid-stream and
// the downloaded-but-never-displayed bytes are charged as waste.
func AblAbandon(ctx context.Context) ([]*textplot.Table, []string, error) {
	base := services.ByName("H1")
	org, err := serviceOrigin(base)
	if err != nil {
		return nil, nil, err
	}
	t := &textplot.Table{
		Title: "Ablation §3.3.2 — pausing threshold vs data wasted on abandonment",
		Note:  "H1's player with varied thresholds; the user abandons after 120 s / 300 s (medians over profiles 4–9)",
		Header: []string{"pause/resume (s)", "unwatched MB @120 s", "unwatched share @120 s",
			"unwatched MB @300 s", "stall s (full session)"},
	}
	for _, thr := range []struct{ pause, resume float64 }{
		{30, 20}, {90, 80}, {180, 170},
	} {
		var w120, s120, w300, stalls []float64
		for _, p := range netem.CanonicalCellularSet()[3:9] {
			for _, cut := range []float64{120, 300} {
				res, err := expcache.Run(base.Player, org, p, cut, func(c *player.Config) {
					c.PauseThresholdSec = thr.pause
					c.ResumeThresholdSec = thr.resume
					c.Replacement = nil // isolate the threshold effect from SR
				})
				if err != nil {
					return nil, nil, err
				}
				wasted := unwatchedBytes(res)
				if cut == 120 {
					w120 = append(w120, wasted/1e6)
					s120 = append(s120, wasted/res.Summary.TotalBytes)
				} else {
					w300 = append(w300, wasted/1e6)
				}
			}
			full, err := expcache.Run(base.Player, org, p, 600, func(c *player.Config) {
				c.PauseThresholdSec = thr.pause
				c.ResumeThresholdSec = thr.resume
				c.Replacement = nil
			})
			if err != nil {
				return nil, nil, err
			}
			stalls = append(stalls, full.TotalStall())
		}
		t.AddRow(fmt.Sprintf("%.0f/%.0f", thr.pause, thr.resume),
			fmt.Sprintf("%.1f", textplot.Median(w120)),
			textplot.Pct(textplot.Median(s120)),
			fmt.Sprintf("%.1f", textplot.Median(w300)),
			textplot.Secs(textplot.Median(stalls)),
		)
	}
	return []*textplot.Table{t}, nil, nil
}

// unwatchedBytes sums media bytes downloaded but never displayed before
// the session ended: video segments that never reached the screen plus
// audio buffered past the final playhead.
func unwatchedBytes(res *player.Result) float64 {
	displayed := map[int]bool{}
	for i, tr := range res.Displayed {
		if tr >= 0 {
			displayed[i] = true
		}
	}
	playhead := 0.0
	if n := len(res.Samples); n > 0 {
		playhead = res.Samples[n-1].Playhead
	}
	w := 0.0
	for _, d := range res.Downloads {
		if d.End == 0 {
			continue
		}
		switch d.Type {
		case media.TypeVideo:
			if !displayed[d.Index] {
				w += d.Bytes
			}
		case media.TypeAudio:
			if float64(d.Index)*d.Duration >= playhead {
				w += d.Bytes
			}
		}
	}
	return w
}

// AblFairness runs the multi-client scenario behind the FESTIVE work the
// paper cites (§5): three identical players share one link; algorithms
// differ in how evenly and how fully they use it. Jain's index over the
// players' average bitrates measures fairness.
func AblFairness(ctx context.Context) ([]*textplot.Table, []string, error) {
	org, err := exoContent(4, 21)
	if err != nil {
		return nil, nil, err
	}
	const linkBps = 4.5e6
	type algo struct {
		name string
		mk   func() adaptation.Algorithm
		est  func() adaptation.Estimator
	}
	algos := []algo{
		{"throughput 0.75 (declared)", func() adaptation.Algorithm { return adaptation.Throughput{Factor: 0.75} }, nil},
		{"throughput 0.9 (actual)", func() adaptation.Algorithm { return adaptation.Throughput{Factor: 0.9, UseActual: true} }, nil},
		{"ExoPlayer hysteresis", func() adaptation.Algorithm { return adaptation.DefaultHysteresis() }, nil},
		{"buffer-based (BBA)", func() adaptation.Algorithm { return adaptation.BufferBased{Reservoir: 8, Cushion: 40} }, nil},
		{"FESTIVE", func() adaptation.Algorithm { return adaptation.NewFestive() },
			func() adaptation.Estimator { return adaptation.NewSlidingHarmonic(10) }},
	}
	t := &textplot.Table{
		Title: "Ablation — three players sharing a 4.5 Mbit/s link (600 s)",
		Note:  "under max-min fair link sharing every algorithm is bitrate-fair (Jain ≈ 1); they differ in utilisation, stability and stalls",
		Header: []string{"algorithm", "mean avg bitrate (Mbps)", "Jain fairness", "link utilisation",
			"switches/player", "stall s/player"},
	}
	rows, err := sweep(ctx, algos, func(a algo) ([]string, error) {
		net := simnet.New(simnet.DefaultConfig(), netem.Constant("shared", linkBps, 600))
		group := player.NewGroup()
		for i := 0; i < 3; i++ {
			cfg := exoPlayer(fmt.Sprintf("%s#%d", a.name, i))
			cfg.Algorithm = a.mk()
			if a.est != nil {
				cfg.Estimator = a.est()
			}
			cfg.ExposeSegmentSizes = true
			// Stagger the players (different startup tracks and buffer
			// targets) so unfairness has room to appear — identical
			// deterministic players would stay in lockstep.
			cfg.StartupTrack = i
			cfg.PauseThresholdSec = 60 + 15*float64(i)
			cfg.ResumeThresholdSec = cfg.PauseThresholdSec - 15
			sess, err := player.NewSession(cfg, org, net)
			if err != nil {
				return nil, err
			}
			if err := group.Add(sess); err != nil {
				return nil, err
			}
		}
		results := group.Run()
		var rates, switches, stalls []float64
		var bytes float64
		var endTime float64
		for _, res := range results {
			rep := qoe.FromResult(res)
			rates = append(rates, rep.AvgBitrate)
			switches = append(switches, float64(rep.Switches))
			stalls = append(stalls, rep.StallSec)
			bytes += res.Summary.TotalBytes
			if res.EndTime > endTime {
				endTime = res.EndTime
			}
		}
		return []string{
			a.name,
			textplot.Mbps(textplot.Mean(rates)),
			fmt.Sprintf("%.3f", jain(rates)),
			textplot.Pct(bytes * 8 / (endTime * linkBps)),
			fmt.Sprintf("%.0f", textplot.Mean(switches)),
			textplot.Secs(textplot.Mean(stalls)),
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

// jain computes Jain's fairness index (Σx)²/(n·Σx²).
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/expcache"
	"repro/internal/netem"
	"repro/internal/player"
	"repro/internal/probe"
	"repro/internal/services"
	"repro/internal/textplot"
)

// Fig6 reproduces Figure 6: D1's video and audio download progress drift
// apart under low bandwidth, and stalls strike while ~100 s of video sits
// in the buffer. The paper reports average video/audio progress gaps of
// 69.9 s and 52.5 s on the two lowest-bandwidth profiles.
func Fig6(ctx context.Context) ([]*textplot.Table, []string, error) {
	d1 := services.ByName("D1")
	t := &textplot.Table{
		Title:  "Figure 6 — D1 audio/video desynchronisation (two lowest profiles)",
		Header: []string{"profile", "avg |video-audio| buffer (s)", "stalls", "stall sec", "video buffered at stalls (s)"},
	}
	var plots []string
	var base *player.Result // profile-1 session, reused for the what-if table
	for i, p := range netem.CanonicalCellularSet()[:2] {
		res, err := run(d1, p, 600)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			base = res
		}
		var diffs []float64
		var xs, vb, ab []float64
		for _, s := range res.Samples {
			if s.T >= 60 {
				diffs = append(diffs, math.Abs(s.VideoSec-s.AudioSec))
			}
			xs = append(xs, s.T)
			vb = append(vb, s.VideoSec)
			ab = append(ab, s.AudioSec)
		}
		stallSec, vidAtStall := 0.0, []float64{}
		for _, st := range res.Stalls {
			stallSec += st.Duration()
			vidAtStall = append(vidAtStall, bufAt(res, st.Start))
		}
		t.AddRow(fmt.Sprintf("%d", i+1),
			textplot.Secs(textplot.Mean(diffs)),
			fmt.Sprintf("%d", len(res.Stalls)),
			textplot.Secs(stallSec),
			textplot.Secs(textplot.Mean(vidAtStall)),
		)
		if i == 0 {
			plots = append(plots, textplot.Plot("Figure 6 — D1 buffered seconds over time (profile 1)", 72, 14,
				textplot.Series{Name: "video buffer (s)", X: xs, Y: vb},
				textplot.Series{Name: "audio buffer (s)", X: xs, Y: ab},
			))
		}
	}
	// Contrast: the same player with synced audio scheduling.
	synced := *d1
	syncedCfg := d1.Player
	syncedCfg.Audio = 0 // AudioSynced
	synced.Player = syncedCfg
	res, err := expcache.RunService(&synced, netem.CanonicalCellularSet()[0], 600, nil)
	if err != nil {
		return nil, nil, err
	}
	t2 := &textplot.Table{
		Title:  "Figure 6 (what-if) — D1 with synced audio/video scheduling, profile 1",
		Header: []string{"variant", "stalls", "stall sec"},
	}
	// The shipped-config baseline is the profile-1 session already
	// computed in the loop above; no second run.
	t2.AddRow("desynced (as shipped)", fmt.Sprintf("%d", len(base.Stalls)), textplot.Secs(base.Summary.StallSec))
	t2.AddRow("synced (best practice)", fmt.Sprintf("%d", len(res.Stalls)), textplot.Secs(res.Summary.StallSec))
	return []*textplot.Table{t, t2}, plots, nil
}

// Fig7 reproduces Figure 7: S2's 4 s resuming threshold leaves no
// headroom — after each download pause the buffer is nearly empty when
// fetching resumes, so transient dips stall playback. Raising the
// threshold removes the stalls.
func Fig7(ctx context.Context) ([]*textplot.Table, []string, error) {
	s2 := services.ByName("S2")
	t := &textplot.Table{
		Title:  "Figure 7 — S2 stalls vs resuming threshold (14 cellular profiles)",
		Header: []string{"variant", "profiles with stalls", "total stalls", "median stall sec", "mean stall sec"},
	}
	variants := []struct {
		name   string
		resume float64
	}{
		{"resume at 4 s (as shipped)", 4},
		{"resume at 25 s", 25},
	}
	var plots []string
	for vi, v := range variants {
		withStalls, total := 0, 0
		var secs []float64
		for pi, p := range netem.CanonicalCellularSet() {
			res, err := expcache.RunService(s2, p, 600, func(c *player.Config) { c.ResumeThresholdSec = v.resume })
			if err != nil {
				return nil, nil, err
			}
			if len(res.Stalls) > 0 {
				withStalls++
			}
			total += len(res.Stalls)
			secs = append(secs, res.Summary.StallSec)
			if vi == 0 && pi == 2 {
				var xs, vb []float64
				for _, s := range res.Samples {
					if s.T > 200 {
						break
					}
					xs = append(xs, s.T)
					vb = append(vb, s.VideoSec)
				}
				plots = append(plots, textplot.Plot("Figure 7 — S2 video buffer, profile 3 (resume=4s)", 72, 12,
					textplot.Series{Name: "video buffer (s)", X: xs, Y: vb}))
			}
		}
		t.AddRow(v.name, fmt.Sprintf("%d/14", withStalls), fmt.Sprintf("%d", total),
			textplot.Secs(textplot.Median(secs)), textplot.Secs(textplot.Mean(secs)))
	}
	return []*textplot.Table{t}, plots, nil
}

// Fig8 reproduces Figure 8: at a constant 500 kbit/s, D1 keeps switching
// tracks while the other services converge.
func Fig8(ctx context.Context) ([]*textplot.Table, []string, error) {
	t := &textplot.Table{
		Title:  "Figure 8 — steady-state behaviour at constant 500 kbit/s",
		Header: []string{"service", "distinct tracks (2nd half)", "switches (2nd half)", "converged declared (Mbps)"},
	}
	var plots []string
	for _, svc := range allServices() {
		st, err := probe.SteadyState(svc, 500e3)
		if err != nil {
			return nil, nil, err
		}
		t.AddRow(svc.Name, fmt.Sprintf("%d", st.DistinctTracks), fmt.Sprintf("%d", st.Switches), textplot.Mbps(st.ConvergedDeclared))
	}
	// The oscillation trace itself.
	res, err := run(services.ByName("D1"), netem.Constant("const0.5", 500e3, 600), 600)
	if err != nil {
		return nil, nil, err
	}
	var xs, ys []float64
	for i, tr := range res.Displayed {
		if tr < 0 {
			continue
		}
		xs = append(xs, res.DisplayedWallStart[i])
		ys = append(ys, res.Declared[tr]/1e3)
	}
	plots = append(plots, textplot.Plot("Figure 8 — D1 displayed declared bitrate (kbit/s) @500 kbit/s", 72, 12,
		textplot.Series{Name: "displayed declared kbit/s", X: xs, Y: ys}))
	return []*textplot.Table{t}, plots, nil
}

// Fig9 reproduces Figure 9: the declared bitrate each service converges
// to under constant bandwidth. Aggressive services (D1, D3, S1) track
// y≈x; the conservative cluster stays below 0.75x; D2 below ~0.5–0.6x.
func Fig9(ctx context.Context) ([]*textplot.Table, []string, error) {
	bws := []float64{0.5e6, 1e6, 1.5e6, 2e6, 2.5e6, 3e6, 3.5e6, 4e6}
	names := []string{"H1", "H3", "D1", "D2", "D3", "S1"}
	t := &textplot.Table{
		Title:  "Figure 9 — converged declared bitrate (Mbps) vs constant bandwidth",
		Header: append([]string{"bandwidth (Mbps)"}, names...),
	}
	type cell struct {
		bw   float64
		name string
	}
	var cells []cell
	for _, bw := range bws {
		for _, n := range names {
			cells = append(cells, cell{bw, n})
		}
	}
	states, err := sweep(ctx, cells, func(c cell) (probe.Steady, error) {
		return probe.SteadyState(services.ByName(c.name), c.bw)
	})
	if err != nil {
		return nil, nil, err
	}
	ratio := map[string][]float64{}
	for bi, bw := range bws {
		row := []string{textplot.Mbps(bw)}
		for ni, n := range names {
			st := states[bi*len(names)+ni]
			row = append(row, textplot.Mbps(st.ConvergedDeclared))
			ratio[n] = append(ratio[n], st.ConvergedDeclared/bw)
		}
		t.AddRow(row...)
	}
	t2 := &textplot.Table{
		Title:  "Figure 9 — mean converged-declared / bandwidth ratio",
		Header: []string{"service", "mean ratio", "class"},
	}
	for _, n := range names {
		m := textplot.Mean(ratio[n])
		class := "conservative (≤0.75x)"
		if m >= 0.9 {
			class = "aggressive (≈y=x)"
		} else if m <= 0.6 {
			class = "very conservative (≤0.5-0.6x)"
		}
		t2.AddRow(n, fmt.Sprintf("%.2f", m), class)
	}
	return []*textplot.Table{t, t2}, nil, nil
}

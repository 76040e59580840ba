package experiments

import (
	"context"
	"fmt"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/textplot"
)

// Fig3 reproduces Figure 3: the per-profile average bandwidth of the 14
// cellular traces, ascending ~1→40 Mbit/s.
func Fig3(ctx context.Context) ([]*textplot.Table, []string, error) {
	t := &textplot.Table{
		Title:  "Figure 3 — cellular bandwidth profiles",
		Note:   "synthetic stand-ins for the paper's 14 recorded traces (600 s, 1 s samples)",
		Header: []string{"profile", "avg Mbps", "min Mbps", "max Mbps", "p10 Mbps", "p90 Mbps"},
	}
	for i, p := range netem.CanonicalCellularSet() {
		samples := append([]float64(nil), p.Samples...)
		t.AddRow(
			fmt.Sprintf("%d", i+1),
			textplot.Mbps(p.Average()),
			textplot.Mbps(p.Min()),
			textplot.Mbps(p.Max()),
			textplot.Mbps(textplot.Percentile(samples, 10)),
			textplot.Mbps(textplot.Percentile(samples, 90)),
		)
	}
	return []*textplot.Table{t}, nil, nil
}

// Fig4 reproduces Figure 4: each service's declared track ladder. The
// highest tracks span 2–5.5 Mbit/s; H2, H5 and S1 have bottom tracks
// above 500 kbit/s (a Table 2 issue); adjacent rungs are 1.5–2× apart.
func Fig4(ctx context.Context) ([]*textplot.Table, []string, error) {
	t := &textplot.Table{
		Title:  "Figure 4 — declared bitrates of tracks (Mbit/s)",
		Header: []string{"service", "tracks", "lowest", "highest", "ladder"},
	}
	for _, svc := range allServices() {
		org, err := serviceOrigin(svc)
		if err != nil {
			return nil, nil, err
		}
		var declared []float64
		for _, r := range org.Pres.Video {
			declared = append(declared, r.DeclaredBitrate)
		}
		t.AddRow(svc.Name,
			fmt.Sprintf("%d", len(declared)),
			textplot.Mbps(declared[0]),
			textplot.Mbps(declared[len(declared)-1]),
			fmtLadder(declared),
		)
	}
	return []*textplot.Table{t}, nil, nil
}

// Fig5 reproduces Figure 5: the distribution of actual segment bitrate
// normalised by the declared bitrate for each service's highest track.
// Peak-declared VBR services sit well below 1; S1/S2 (average-declared)
// straddle 1; CBR services cluster tightly at ~0.9.
func Fig5(ctx context.Context) ([]*textplot.Table, []string, error) {
	t := &textplot.Table{
		Title:  "Figure 5 — actual/declared bitrate of the highest track",
		Header: []string{"service", "encoding", "declared", "min", "p25", "median", "p75", "max"},
	}
	for _, svc := range allServices() {
		v, err := svc.Video()
		if err != nil {
			return nil, nil, err
		}
		tr := v.HighestTrack()
		var ratios []float64
		for i := range tr.SegmentBytes {
			ratios = append(ratios, tr.ActualBitrate(i)/tr.DeclaredBitrate)
		}
		t.AddRow(svc.Name,
			v.Encoding.String(),
			policyName(v.DeclaredPolicy),
			fmt.Sprintf("%.2f", textplot.Percentile(ratios, 0)),
			fmt.Sprintf("%.2f", textplot.Percentile(ratios, 25)),
			fmt.Sprintf("%.2f", textplot.Percentile(ratios, 50)),
			fmt.Sprintf("%.2f", textplot.Percentile(ratios, 75)),
			fmt.Sprintf("%.2f", textplot.Percentile(ratios, 100)),
		)
	}
	return []*textplot.Table{t}, nil, nil
}

func policyName(p media.DeclaredPolicy) string {
	if p == media.DeclareAverage {
		return "average"
	}
	return "peak"
}

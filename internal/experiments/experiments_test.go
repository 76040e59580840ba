package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/services"
	"repro/internal/textplot"
)

// cell finds the value in the row whose first cell equals key.
func cell(t *testing.T, tb *textplot.Table, key string, col int) string {
	t.Helper()
	for _, row := range tb.Rows {
		if row[0] == key {
			return row[col]
		}
	}
	t.Fatalf("row %q not found in %q", key, tb.Title)
	return ""
}

func pctVal(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad pct %q", s)
	}
	return f
}

func numVal(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad number %q", s)
	}
	return f
}

func TestRegistryComplete(t *testing.T) {
	ids := []string{"fig3", "fig4", "fig5", "table1", "table2", "fig6", "fig7",
		"fig8", "fig9", "fig10", "sr_whatif", "fig11", "fig12", "fig13", "fig14", "fig15",
		"abl_energy", "abl_segdur", "abl_split", "abl_srcap", "abl_algorithms", "abl_recovery", "abl_abandon", "abl_fairness"}
	if len(All()) != len(ids) {
		t.Fatalf("registry has %d experiments", len(All()))
	}
	for _, id := range ids {
		if ByID(id) == nil {
			t.Errorf("experiment %q missing", id)
		}
	}
	if ByID("nope") != nil {
		t.Error("unknown id resolved")
	}
}

// TestTable2MatchesPaper asserts the central reproduction result: every
// detector flags exactly the services the paper's Table 2 names.
func TestTable2MatchesPaper(t *testing.T) {
	tables, _, err := Table2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"The bitrate of lowest track is set high":             "H2, H5, S1",
		"Adaptation does not consider actual segment bitrate": "D2",
		"Audio and video downloads out of sync":               "D1",
		"Players use non-persistent TCP connections":          "H2, H3, H5",
		"Downloads resume only when buffer almost empty":      "S2",
		"Playback starts with only one segment downloaded":    "H3, H4, H6, D2, D4",
		"Bitrate selection does not stabilize":                "D1",
		"Players ramp down track despite high buffer":         "H1, H4, H6, D1",
		"Replacement can fetch same or worse quality":         "H1, H4",
	}
	for _, row := range tables[0].Rows {
		problem, got := row[1], row[3]
		if w, ok := want[problem]; ok {
			if got != w {
				t.Errorf("%q: flagged %q, paper says %q", problem, got, w)
			}
			delete(want, problem)
		}
	}
	for p := range want {
		t.Errorf("issue %q missing from table", p)
	}
}

// TestFig9Classes: D1/D3/S1 aggressive, the others conservative (§3.3.3).
func TestFig9Classes(t *testing.T) {
	tables, _, err := Fig9(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ratios := tables[1]
	// A sorted table, not a map: assertion order (and therefore failure
	// output) is identical on every run.
	for _, c := range []struct {
		svc        string
		aggressive bool
	}{
		{"D1", true}, {"D2", false}, {"D3", true},
		{"H1", false}, {"H3", false}, {"S1", true},
	} {
		svc, aggressive := c.svc, c.aggressive
		r := numVal(t, cell(t, ratios, svc, 1))
		if aggressive && r < 0.85 {
			t.Errorf("%s ratio %.2f, expected aggressive (≥0.85)", svc, r)
		}
		if !aggressive && r > 0.8 {
			t.Errorf("%s ratio %.2f, expected conservative (≤0.8)", svc, r)
		}
	}
	// D2 is the most conservative (the ≤0.5x line of Figure 9).
	if d2 := numVal(t, cell(t, ratios, "D2", 1)); d2 > 0.55 {
		t.Errorf("D2 ratio %.2f, paper shows ≈0.5x", d2)
	}
}

// TestFig12DeclaredOnly: both manifest variants select the same level at
// every bandwidth, and utilisation at 2 Mbit/s is ≈1/3 (paper: 33.7%).
func TestFig12(t *testing.T) {
	tables, _, err := Fig12(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if row[3] != "Y" {
			t.Errorf("bw %s: variants selected %s vs %s", row[0], row[1], row[2])
		}
	}
	util := pctVal(t, tables[1].Rows[0][1])
	if util < 25 || util > 45 {
		t.Errorf("utilisation %.1f%%, paper 33.7%%", util)
	}
}

// TestFig14Contrast: H3 always stalls right after startup on the marginal
// profiles; H2 never does.
func TestFig14(t *testing.T) {
	tables, _, err := Fig14(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h3 := pctVal(t, cell(t, tables[0], "H3", 2))
	h2 := pctVal(t, cell(t, tables[0], "H2", 2))
	if h3 < 90 {
		t.Errorf("H3 early-stall ratio %.0f%%, paper: always", h3)
	}
	if h2 > 10 {
		t.Errorf("H2 early-stall ratio %.0f%%, paper: none", h2)
	}
}

// TestFig7ResumeThreshold: raising S2's resume threshold from 4 s to 25 s
// removes nearly all stalls.
func TestFig7(t *testing.T) {
	tables, _, err := Fig7(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	low := tables[0].Rows[0]
	high := tables[0].Rows[1]
	lowStalls, _ := strconv.Atoi(low[2])
	highStalls, _ := strconv.Atoi(high[2])
	if lowStalls < 3*highStalls || lowStalls < 5 {
		t.Errorf("stalls %d (resume 4s) vs %d (resume 25s): expected a large reduction", lowStalls, highStalls)
	}
}

// TestFig13ActualAware: actual-bitrate-aware adaptation improves the
// median bitrate by ≈10% with unchanged stalls (paper: +10.22%).
func TestFig13(t *testing.T) {
	tables, _, err := Fig13(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	delta := pctVal(t, tables[0].Rows[1][2])
	if delta < 4 || delta > 25 {
		t.Errorf("actual-aware Δbitrate %.1f%%, paper +10.22%%", delta)
	}
	base := pctVal(t, tables[0].Rows[0][3])
	aware := pctVal(t, tables[0].Rows[1][3])
	if aware >= base {
		t.Errorf("lowest-track share did not drop: %.1f%% → %.1f%%", base, aware)
	}
}

// TestFig11ImprovedSR: per-segment SR raises quality at a data cost; the
// capped variant keeps gains with less data.
func TestFig11(t *testing.T) {
	tables, _, err := Fig11(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	improved := tables[0].Rows[1]
	capped := tables[0].Rows[2]
	if p90 := pctVal(t, improved[3]); p90 < 5 {
		t.Errorf("improved SR p90 Δbitrate %.1f%%, paper +20.9%%", p90)
	}
	dImproved := pctVal(t, improved[4])
	dCapped := pctVal(t, capped[4])
	if dCapped >= dImproved {
		t.Errorf("capped SR data %.1f%% should undercut improved %.1f%%", dCapped, dImproved)
	}
}

// TestSRWhatIf: H4-style SR costs a lot of data for little quality, with
// a substantial share of non-improving replacements (§4.1.1).
func TestSRWhatIf(t *testing.T) {
	tables, _, err := SRWhatIf(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h4Data := pctVal(t, cell(t, tables[0], "H4", 1))
	if h4Data < 5 {
		t.Errorf("H4 median Δdata %.1f%%, paper +25.66%%", h4Data)
	}
	lower := pctVal(t, cell(t, tables[0], "H4", 5))
	equal := pctVal(t, cell(t, tables[0], "H4", 6))
	if lower+equal < 15 {
		t.Errorf("non-improving replacements %.1f%%, paper ≈28%%", lower+equal)
	}
}

// TestFig6Desync: D1's buffers drift tens of seconds apart on the lowest
// profiles.
func TestFig6(t *testing.T) {
	tables, _, err := Fig6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if gap := numVal(t, row[1]); gap < 10 {
			t.Errorf("profile %s desync %.1f s, paper 52–70 s", row[0], gap)
		}
	}
}

// TestFig15Orderings: the three monotonicities of §4.3.
func TestFig15(t *testing.T) {
	tables, _, err := Fig15(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		segDur  string
		track   string
		nseg    int
		delay   float64
		stalled float64
	}
	var rows []row
	for _, r := range tables[0].Rows {
		n, _ := strconv.Atoi(r[2])
		rows = append(rows, row{r[0], r[1], n, numVal(t, r[3]), pctVal(t, r[4])})
	}
	find := func(seg, track string, n int) row {
		for _, r := range rows {
			if r.segDur == seg && r.track == track && r.nseg == n {
				return r
			}
		}
		t.Fatalf("row %s/%s/%d missing", seg, track, n)
		return row{}
	}
	for _, seg := range []string{"4s", "8s"} {
		for _, track := range []string{"1.2 Mbps", "2.0 Mbps"} {
			one, three := find(seg, track, 1), find(seg, track, 3)
			if three.stalled > 0.417*one.stalled+1e-9 && one.stalled > 5 {
				t.Errorf("%s %s: 3 segments stall %.0f%%, 1 segment %.0f%% (paper: ≤41.7%%)",
					seg, track, three.stalled, one.stalled)
			}
			if three.delay <= one.delay {
				t.Errorf("%s %s: delay must grow with startup segments", seg, track)
			}
		}
		// Higher startup track → more startup stalls at 1 segment.
		lo, hi := find(seg, "1.2 Mbps", 1), find(seg, "2.0 Mbps", 1)
		if hi.stalled < lo.stalled {
			t.Errorf("%s: higher startup track should stall more (%.0f%% vs %.0f%%)", seg, hi.stalled, lo.stalled)
		}
	}
}

// TestFig5Shape: peak-declared VBR medians sit near 0.5; average-declared
// services straddle 1.
func TestFig5(t *testing.T) {
	tables, _, err := Fig5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		med := numVal(t, row[5])
		switch row[2] {
		case "peak":
			if row[1] == "VBR" {
				// Expect median ≈ 1/VBRSpread of the service's encoding.
				spread := services.ByName(row[0]).Media.VBRSpread
				want := 1 / spread
				if med < want-0.15 || med > want+0.15 {
					t.Errorf("%s median ratio %.2f, want ≈%.2f (1/spread)", row[0], med, want)
				}
			}
			if row[1] == "CBR" && (med < 0.9 || med > 1.1) {
				t.Errorf("%s CBR median ratio %.2f", row[0], med)
			}
		case "average":
			if med < 0.7 || med > 1.3 {
				t.Errorf("%s average-declared median %.2f, want ≈1", row[0], med)
			}
		}
	}
}

// TestAblEnergy: services with pause/resume gaps inside the RRC demotion
// timer keep the radio in high power the whole session (§3.3.2).
func TestAblEnergy(t *testing.T) {
	tables, _, err := AblEnergy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		gap := numVal(t, row[1])
		share := pctVal(t, row[3])
		if gap <= 6 && share < 99 {
			t.Errorf("%s: gap %.0f s but high-power share only %.1f%%", row[0], gap, share)
		}
		if gap >= 19 && share > 95 {
			t.Errorf("%s: gap %.0f s should allow demotions (share %.1f%%)", row[0], gap, share)
		}
	}
}

// TestAblSplit: with heterogeneous per-connection bottlenecks, skewing
// bytes onto slow connections degrades quality monotonically.
func TestAblSplit(t *testing.T) {
	tables, _, err := AblSplit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	proportional := numVal(t, rows[0][1])
	inverted := numVal(t, rows[len(rows)-1][1])
	if proportional <= inverted {
		t.Errorf("bandwidth-proportional split (%.2f Mbps) should beat inverted (%.2f Mbps)", proportional, inverted)
	}
}

// TestAblRecovery: larger recovery gates cut repeat stalls (§4.3).
func TestAblRecovery(t *testing.T) {
	tables, _, err := AblRecovery(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	one, _ := strconv.Atoi(rows[0][2])
	three, _ := strconv.Atoi(rows[2][2])
	if three >= one {
		t.Errorf("repeat stalls with 3-segment gate (%d) should undercut 1-segment (%d)", three, one)
	}
}

// TestAblSRCap: data cost grows with the cap while the low-track benefit
// saturates early (§4.1.3's "discarding low segments has bigger impact").
func TestAblSRCap(t *testing.T) {
	tables, _, err := AblSRCap(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	var prev float64 = -1
	for _, row := range rows[1:] { // skip the no-SR baseline
		d := pctVal(t, row[2])
		if d < prev-0.5 {
			t.Errorf("Δdata not non-decreasing with cap: %s at %.1f%% after %.1f%%", row[0], d, prev)
		}
		prev = d
	}
	base := pctVal(t, rows[0][4])
	low2 := pctVal(t, rows[2][4])
	if low2 >= base {
		t.Errorf("cap ≤2 low-track share %.1f%% should undercut no-SR %.1f%%", low2, base)
	}
}

// TestAblSegDur: the request count falls monotonically with segment
// duration (the §3.1 tradeoff's cost axis).
func TestAblSegDur(t *testing.T) {
	tables, _, err := AblSegDur(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, row := range tables[0].Rows {
		reqs := numVal(t, row[1])
		if prev > 0 && reqs >= prev {
			t.Errorf("requests not decreasing: %s has %.0f after %.0f", row[0], reqs, prev)
		}
		prev = reqs
	}
}

// TestAblAlgorithms: on peak-declared VBR content, declared-only rules
// trail the hysteresis player (the §4.2 point restated as a shoot-out),
// and BBA switches far more than hysteresis.
func TestAblAlgorithms(t *testing.T) {
	tables, _, err := AblAlgorithms(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string, col int) float64 {
		return numVal(t, cell(t, tables[0], name, col))
	}
	if get("ExoPlayer hysteresis", 1) <= get("throughput 0.75", 1) {
		t.Error("hysteresis should outperform the plain declared throughput rule here")
	}
	if get("buffer-based (BBA)", 3) <= get("ExoPlayer hysteresis", 3) {
		t.Error("BBA should switch more than hysteresis")
	}
	for _, row := range tables[0].Rows {
		if s := numVal(t, row[2]); s > 120 {
			t.Errorf("%s stalled %.0f s — broken config", row[0], s)
		}
	}
}

// TestAblAbandon: waste at abandonment grows with the pausing threshold.
func TestAblAbandon(t *testing.T) {
	tables, _, err := AblAbandon(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, row := range tables[0].Rows {
		w := numVal(t, row[1])
		if w < prev {
			t.Errorf("unwatched MB not increasing with threshold: %s", row[0])
		}
		prev = w
	}
}

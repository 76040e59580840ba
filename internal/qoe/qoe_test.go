package qoe_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/netem"
	"repro/internal/player"
	"repro/internal/qoe"
	"repro/internal/services"
	"repro/internal/simnet"
	"repro/internal/traffic"
	"repro/internal/uimon"
)

// TestFromResultIsSummary: a full Result's report is the Summary the
// session folded online, field for field, and owns its TimeOnTrack —
// memoised Results are shared, so a caller scribbling on the report
// must not reach the Result.
func TestFromResultIsSummary(t *testing.T) {
	svc := services.ByName("H5")
	org, err := svc.Origin()
	if err != nil {
		t.Fatal(err)
	}
	cfg := services.Resolve(svc.Player, 300, nil)
	sess, err := player.NewSession(cfg, org, simnet.New(simnet.DefaultConfig(), netem.Cellular(3)))
	if err != nil {
		t.Fatal(err)
	}
	res := sess.Run()
	got, want := qoe.FromResult(res), qoe.FromSummary(sess.Summary())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FromResult %+v\nFromSummary %+v", got, want)
	}
	if got.PlayedSec <= 0 || got.AvgBitrate <= 0 {
		t.Fatalf("degenerate session: %+v", got)
	}
	got.TimeOnTrack[0]++
	if reflect.DeepEqual(got.TimeOnTrack, res.Summary.TimeOnTrack) {
		t.Fatal("FromResult's TimeOnTrack aliases the Result's Summary")
	}
}

// TestInferenceClosure is the paper's methodology validated end to end:
// QoE recovered purely from traffic + 1 Hz UI samples must agree with the
// simulator's ground truth within the 1 s observation granularity.
func TestInferenceClosure(t *testing.T) {
	cases := []struct {
		svc     string
		profile int
	}{
		{"H1", 3}, {"H5", 1}, {"D2", 4}, {"D4", 2}, {"S2", 3},
	}
	for _, c := range cases {
		c := c
		t.Run(c.svc, func(t *testing.T) {
			svc := services.ByName(c.svc)
			res, err := svc.Run(netem.Cellular(c.profile), 600, nil)
			if err != nil {
				t.Fatal(err)
			}
			truth := qoe.FromResult(res)
			tr, err := traffic.Analyze(c.svc, res.Transactions)
			if err != nil {
				t.Fatal(err)
			}
			inf := qoe.Infer(tr, uimon.FromResult(res))
			got := inf.Report

			if math.Abs(got.StartupDelay-truth.StartupDelay) > 2 {
				t.Errorf("startup inferred %.1f vs truth %.1f", got.StartupDelay, truth.StartupDelay)
			}
			if math.Abs(got.StallSec-truth.StallSec) > 3+2*float64(truth.StallCount) {
				t.Errorf("stall sec inferred %.1f vs truth %.1f", got.StallSec, truth.StallSec)
			}
			if truth.AvgBitrate > 0 {
				if rel := math.Abs(got.AvgBitrate-truth.AvgBitrate) / truth.AvgBitrate; rel > 0.1 {
					t.Errorf("avg bitrate inferred %.0f vs truth %.0f (%.0f%% off)",
						got.AvgBitrate, truth.AvgBitrate, rel*100)
				}
			}
			// Data usage from traffic covers the media payload (documents
			// are not segments).
			if got.DataUsageBytes > truth.DataUsageBytes+1 {
				t.Errorf("inferred data %.0f exceeds truth %.0f", got.DataUsageBytes, truth.DataUsageBytes)
			}
			if got.DataUsageBytes < 0.95*truth.DataUsageBytes-1e5 {
				t.Errorf("inferred data %.0f far below truth %.0f", got.DataUsageBytes, truth.DataUsageBytes)
			}
		})
	}
}

// TestBufferInferenceClosure checks §2.5: inferred buffer occupancy =
// download progress − playback progress must track the simulator's real
// buffer within observation granularity. H5 does no segment replacement,
// so traffic-only inference should be tight (with SR the inference
// briefly overestimates while dropped segments await their re-download —
// a blind spot the paper's methodology shares).
func TestBufferInferenceClosure(t *testing.T) {
	svc := services.ByName("H5")
	res, err := svc.Run(netem.Cellular(5), 600, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffic.Analyze("H5", res.Transactions)
	if err != nil {
		t.Fatal(err)
	}
	inf := qoe.Infer(tr, uimon.FromResult(res))
	truth := map[float64]player.BufferSample{}
	for _, s := range res.Samples {
		truth[s.T] = s
	}
	checked, worst := 0, 0.0
	for _, bp := range inf.Buffer {
		ts, ok := truth[bp.T]
		if !ok || bp.T < 30 {
			continue
		}
		diff := math.Abs(bp.VideoSec - ts.VideoSec)
		if diff > worst {
			worst = diff
		}
		checked++
		// One segment duration + 2 s sampling slack.
		if diff > res.SegmentDuration+3 {
			t.Fatalf("t=%.0f inferred %.1f s vs true %.1f s", bp.T, bp.VideoSec, ts.VideoSec)
		}
	}
	if checked < 100 {
		t.Fatalf("only %d buffer points checked", checked)
	}
	t.Logf("buffer inference worst error %.2f s over %d points", worst, checked)
}

// Adaptation_lab shows the library as a test bench for new adaptation
// algorithms: it implements a custom algorithm against the public
// Algorithm interface (a simple safety-margin rule that also reads actual
// segment sizes, per §4.2's best practice) and races it against the
// built-in policies on identical content and traces.
package main

import (
	"fmt"
	"log"

	vod "repro"
	"repro/internal/adaptation"
	"repro/internal/manifest"
	"repro/internal/media"
	"repro/internal/player"
	"repro/internal/textplot"
)

// cautiousActual is a user-defined algorithm: it budgets against the
// worst actual bitrate of the next few segments (not the declared rate),
// keeps a stronger safety margin when the buffer is thin, and relaxes it
// as the buffer grows.
type cautiousActual struct{}

func (cautiousActual) Select(ctx adaptation.Context) int {
	if ctx.EstimateBps <= 0 {
		return ctx.StartupTrack
	}
	margin := 0.6
	if ctx.BufferSec > 20 {
		margin = 0.85
	}
	budget := margin * ctx.EstimateBps
	best := 0
	for tr := range ctx.Declared {
		rate := ctx.Declared[tr]
		if ctx.SegmentSize != nil {
			worst := 0.0
			for i := ctx.NextIndex; i < ctx.NextIndex+3 && i < ctx.SegmentCount; i++ {
				if r := ctx.SegmentSize(tr, i) * 8 / ctx.SegmentDuration; r > worst {
					worst = r
				}
			}
			if worst > 0 {
				rate = worst
			}
		}
		if rate <= budget {
			best = tr
		}
	}
	return best
}

func main() {
	video, err := vod.GenerateVideo(vod.MediaConfig{
		Name: "lab", Duration: 1200, SegmentDuration: 4,
		TargetBitrates: []float64{200e3, 400e3, 800e3, 1.5e6, 2.8e6, 4.5e6},
		Encoding:       media.VBR, VBRSpread: 2, DeclaredPolicy: media.DeclarePeak,
		Seed: 23,
	})
	if err != nil {
		log.Fatal(err)
	}
	org, err := vod.NewOrigin(vod.BuildManifest(video, vod.BuildOptions{
		Protocol: manifest.DASH, Addressing: manifest.SidxRanges,
	}))
	if err != nil {
		log.Fatal(err)
	}

	algos := []struct {
		name   string
		algo   vod.Algorithm
		actual bool // expose per-segment sizes to the algorithm
	}{
		{"throughput 0.75 (declared)", adaptation.Throughput{Factor: 0.75}, false},
		{"ExoPlayer hysteresis", adaptation.DefaultHysteresis(), false},
		{"buffer-based (BBA)", adaptation.BufferBased{Reservoir: 8, Cushion: 30}, false},
		{"cautious-actual (custom)", cautiousActual{}, true},
	}

	t := &textplot.Table{
		Title:  "Adaptation algorithms over the 14 cellular profiles (medians)",
		Header: []string{"algorithm", "avg kbit/s", "stall s", "switches", "low-track time"},
	}
	for _, a := range algos {
		var rate, stall, switches, low []float64
		for i := 1; i <= 14; i++ {
			cfg := vod.PlayerConfig{
				Name: a.name, StartupBufferSec: 8, StartupSegments: 2, StartupTrack: 1,
				PauseThresholdSec: 60, ResumeThresholdSec: 45,
				MaxConnections: 1, Persistent: true, Scheduler: player.SchedulerSingle,
				Algorithm: a.algo, ExposeSegmentSizes: a.actual,
			}
			res, err := vod.Stream(cfg, org, vod.CellularProfile(i), 600)
			if err != nil {
				log.Fatal(err)
			}
			rep := vod.QoE(res)
			rate = append(rate, rep.AvgBitrate)
			stall = append(stall, rep.StallSec)
			switches = append(switches, float64(rep.Switches))
			low = append(low, rep.PctTimeBelow(res.Declared, 800e3))
		}
		t.AddRow(a.name,
			fmt.Sprintf("%.0f", textplot.Median(rate)/1e3),
			fmt.Sprintf("%.1f", textplot.Median(stall)),
			fmt.Sprintf("%.0f", textplot.Median(switches)),
			textplot.Pct(textplot.Median(low)),
		)
	}
	fmt.Println(t.String())
}

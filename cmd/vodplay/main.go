// Command vodplay streams one of the twelve service models over a
// bandwidth profile in the simulator and prints the QoE report, the
// annotated event timeline, and the buffer evolution.
//
// Usage:
//
//	vodplay -service H5 -profile 3
//	vodplay -service D1 -profile const:0.5 -duration 300 -events
//	vodplay -service S2 -profile step:4,0.8,200
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/netem"
	"repro/internal/qoe"
	"repro/internal/services"
	"repro/internal/textplot"
)

func main() {
	name := flag.String("service", "H1", "service model (H1..H6, D1..D4, S1, S2)")
	prof := flag.String("profile", "3", "cellular profile 1..14, const:<Mbps>, or step:<Mbps>,<Mbps>,<switch-s>")
	dur := flag.Float64("duration", 600, "session duration in virtual seconds")
	events := flag.Bool("events", false, "print the full event timeline")
	flag.Parse()

	svc := services.ByName(*name)
	if svc == nil {
		fmt.Fprintf(os.Stderr, "vodplay: unknown service %q\n", *name)
		os.Exit(2)
	}
	p, err := netem.ParseSpec(*prof, *dur)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodplay:", err)
		os.Exit(2)
	}
	res, err := svc.Run(p, *dur, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodplay:", err)
		os.Exit(1)
	}
	rep := qoe.FromResult(res)

	fmt.Printf("service %s over %s (%.0fs, avg %.2f Mbit/s)\n\n", svc.Name, p.Name, *dur, p.Average()/1e6)
	t := &textplot.Table{Title: "QoE report", Header: []string{"metric", "value"}}
	t.AddRow("startup delay", fmt.Sprintf("%.2f s", rep.StartupDelay))
	t.AddRow("stalls", fmt.Sprintf("%d (%.1f s total)", rep.StallCount, rep.StallSec))
	t.AddRow("average bitrate", fmt.Sprintf("%.0f kbit/s", rep.AvgBitrate/1e3))
	t.AddRow("track switches", fmt.Sprintf("%d (%d non-consecutive)", rep.Switches, rep.NonConsecutive))
	t.AddRow("data usage", fmt.Sprintf("%.1f MB", rep.DataUsageBytes/1e6))
	t.AddRow("wasted data", fmt.Sprintf("%.1f MB", rep.WastedBytes/1e6))
	t.AddRow("played", fmt.Sprintf("%.1f s", rep.PlayedSec))
	fmt.Println(t.String())

	var xs, vb, ab []float64
	for _, s := range res.Samples {
		xs = append(xs, s.T)
		vb = append(vb, s.VideoSec)
		ab = append(ab, s.AudioSec)
	}
	series := []textplot.Series{{Name: "video buffer (s)", X: xs, Y: vb}}
	if len(res.Transactions) > 0 && svc.Media.SeparateAudio {
		series = append(series, textplot.Series{Name: "audio buffer (s)", X: xs, Y: ab})
	}
	fmt.Println(textplot.Plot("buffer occupancy", 72, 14, series...))

	if *events {
		et := &textplot.Table{Title: "event timeline", Header: []string{"t (s)", "event", "detail"}}
		for _, e := range res.Events {
			et.AddRow(fmt.Sprintf("%.2f", e.T), e.Kind, e.Detail())
		}
		fmt.Println(et.String())
	}
}

// Component micro-benchmarks that no bench/ probe covers: content
// synthesis, manifest round-trips, the traffic and QoE analyzers, origin
// building and the all-services player sweep. Whole-program timing is
// bench/'s job (see BENCHMARK.json).
package vod

import (
	"testing"

	"repro/internal/manifest"
	"repro/internal/manifest/dash"
	"repro/internal/manifest/hls"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/player"
	"repro/internal/qoe"
	"repro/internal/services"
	"repro/internal/traffic"
	"repro/internal/uimon"
)

// BenchmarkMediaGenerate measures content synthesis (a 20-minute,
// 6-track VBR video).
func BenchmarkMediaGenerate(b *testing.B) {
	cfg := media.Config{
		Name: "b", Duration: 1200, SegmentDuration: 4,
		TargetBitrates: []float64{200e3, 400e3, 800e3, 1.6e6, 3.2e6, 6.4e6},
		Encoding:       media.VBR, VBRSpread: 2, DeclaredPolicy: media.DeclarePeak,
		Seed: 1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := media.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHLSEncodeParse round-trips a 300-segment media playlist.
func BenchmarkHLSEncodeParse(b *testing.B) {
	v, err := media.Generate(media.Config{
		Name: "b", Duration: 1200, SegmentDuration: 4,
		TargetBitrates: []float64{500e3}, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := manifest.Build(v, manifest.BuildOptions{Protocol: manifest.HLS})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text := hls.EncodeMedia(p.Video[0])
		if _, err := hls.ParseMedia(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMPDEncodeDecode round-trips a sidx-addressed MPD.
func BenchmarkMPDEncodeDecode(b *testing.B) {
	v, err := media.Generate(media.Config{
		Name: "b", Duration: 1200, SegmentDuration: 4,
		TargetBitrates: []float64{250e3, 500e3, 1e6},
		SeparateAudio:  true, AudioSegmentDuration: 2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := manifest.Build(v, manifest.BuildOptions{Protocol: manifest.DASH, Addressing: manifest.RangesInManifest})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := dash.Encode(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dash.Decode("b", body, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrafficAnalyze measures the analyzer over a full session log.
func BenchmarkTrafficAnalyze(b *testing.B) {
	svc := services.ByName("D2")
	res, err := svc.Run(netem.Cellular(6), 600, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := traffic.Analyze("D2", res.Transactions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQoEInference measures the full §2 pipeline: traffic analysis +
// UI samples → inferred QoE and buffer timeline.
func BenchmarkQoEInference(b *testing.B) {
	svc := services.ByName("H5")
	res, err := svc.Run(netem.Cellular(4), 600, nil)
	if err != nil {
		b.Fatal(err)
	}
	samples := uimon.FromResult(res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := traffic.Analyze("H5", res.Transactions)
		if err != nil {
			b.Fatal(err)
		}
		qoe.Infer(tr, samples)
	}
}

// BenchmarkOriginBuild measures manifest + sidx encoding for a service.
func BenchmarkOriginBuild(b *testing.B) {
	svc := services.ByName("D3")
	v, err := svc.Video()
	if err != nil {
		b.Fatal(err)
	}
	pres := manifest.Build(v, svc.Build)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := origin.New(pres); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlayerAllServices streams every service model for one minute
// of virtual time — the cross-sectional sweep as a unit of work.
func BenchmarkPlayerAllServices(b *testing.B) {
	type pair struct {
		cfg player.Config
		org *origin.Origin
	}
	var pairs []pair
	for _, svc := range services.All() {
		org, err := svc.Origin()
		if err != nil {
			b.Fatal(err)
		}
		pairs = append(pairs, pair{svc.Player, org})
	}
	p := netem.Cellular(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pr := range pairs {
			if _, err := services.RunWithOrigin(pr.cfg, pr.org, p, 60, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

package vod

import (
	"testing"

	"repro/internal/adaptation"
	"repro/internal/media"
	"repro/internal/player"
)

// TestFacadeEndToEnd drives the whole public surface: generate content,
// build a manifest, create an origin, stream over a profile, compute QoE,
// analyze traffic, and sample the UI monitor.
func TestFacadeEndToEnd(t *testing.T) {
	video, err := GenerateVideo(MediaConfig{
		Name: "facade", Duration: 120, SegmentDuration: 4,
		TargetBitrates: []float64{250e3, 500e3, 1e6},
		Encoding:       media.VBR, VBRSpread: 2, DeclaredPolicy: media.DeclarePeak,
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	org, err := NewOrigin(BuildManifest(video, BuildOptions{Protocol: 1 /* DASH */}))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PlayerConfig{
		Name: "facade", StartupBufferSec: 4, StartupTrack: 0,
		PauseThresholdSec: 30, ResumeThresholdSec: 20,
		MaxConnections: 1, Persistent: true, Scheduler: player.SchedulerSingle,
		Algorithm: adaptation.DefaultHysteresis(),
	}
	res, err := Stream(cfg, org, ConstantProfile(3e6, 300), 150)
	if err != nil {
		t.Fatal(err)
	}
	rep := QoE(res)
	if rep.StartupDelay < 0 || rep.AvgBitrate <= 0 {
		t.Fatalf("bad report: %+v", rep)
	}
	tr, err := AnalyzeTraffic("facade", res.Transactions)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Segments) == 0 {
		t.Fatal("analyzer found no segments")
	}
	if samples := UISamples(res); len(samples) < 100 {
		t.Fatalf("%d UI samples", len(samples))
	}
}

func TestFacadeProfiles(t *testing.T) {
	if got := len(CellularProfiles()); got != 14 {
		t.Fatalf("%d cellular profiles", got)
	}
	if p := CellularProfile(1); p.Average() > CellularProfile(14).Average() {
		t.Fatal("profiles not sorted")
	}
	if p := StepProfile(4e6, 1e6, 10, 20); p.At(5) != 4e6 || p.At(15) != 1e6 {
		t.Fatal("step profile wrong")
	}
}

func TestFacadeServices(t *testing.T) {
	if got := len(Services()); got != 12 {
		t.Fatalf("%d services", got)
	}
	if ServiceByName("H1") == nil || ServiceByName("nope") != nil {
		t.Fatal("ServiceByName")
	}
	res, err := ServiceByName("D4").Run(CellularProfile(6), 120, nil)
	if err != nil {
		t.Fatal(err)
	}
	if QoE(res).PlayedSec < 60 {
		t.Fatal("service session barely played")
	}
}

func TestFacadeNetwork(t *testing.T) {
	net := NewNetwork(DefaultNetworkConfig(), ConstantProfile(8e6, 100))
	c := net.Dial()
	c.Start(1e6, nil)
	done := net.Step(100)
	if len(done) != 1 {
		t.Fatal("transfer did not complete")
	}
}

func TestFacadeRadioEnergy(t *testing.T) {
	res, err := ServiceByName("S2").Run(ConstantProfile(10e6, 600), 600, nil)
	if err != nil {
		t.Fatal(err)
	}
	u := RadioEnergy(res)
	if u.Joules <= 0 || u.ActiveSec <= 0 {
		t.Fatalf("usage %+v", u)
	}
	if total := u.ActiveSec + u.TailSec + u.IdleSec; total < res.EndTime-1 || total > res.EndTime+1 {
		t.Fatalf("states sum to %.1f of %.1f s", total, res.EndTime)
	}
}

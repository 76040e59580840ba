// Package vod is the public facade of the HAS streaming laboratory built
// for reproducing "Dissecting VOD Services for Cellular: Performance,
// Root Causes and Best Practices" (IMC 2017).
//
// It re-exports the building blocks a downstream user needs:
//
//   - content modelling and manifest generation (media, manifest),
//   - HLS / MPEG-DASH / SmoothStreaming codecs,
//   - the deterministic network simulator and bandwidth profiles
//     (simnet, netem),
//   - the configurable HAS player engine with adaptation and segment
//     replacement policies (player, adaptation, replacement),
//   - QoE metrics and the traffic-analysis methodology (qoe, traffic,
//     uimon, probe),
//   - the twelve service models of the paper (services) and the
//     experiment registry regenerating every table and figure
//     (experiments).
//
// The quickest way in:
//
//	svc := vod.ServiceByName("H5")
//	res, err := svc.Run(vod.CellularProfile(3), 600, nil)
//	rep := vod.QoE(res)
//	fmt.Printf("avg %.0f kbit/s, %d stalls\n", rep.AvgBitrate/1e3, rep.StallCount)
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package vod

import (
	"repro/internal/adaptation"
	"repro/internal/energy"
	"repro/internal/manifest"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/player"
	"repro/internal/qoe"
	"repro/internal/replacement"
	"repro/internal/services"
	"repro/internal/simnet"
	"repro/internal/traffic"
	"repro/internal/uimon"
)

// Content and manifests.
type (
	// Video is a generated media presentation (tracks × segments).
	Video = media.Video
	// MediaConfig parameterises content generation.
	MediaConfig = media.Config
	// Track is one quality level.
	Track = media.Track
	// Presentation is the protocol-neutral manifest model.
	Presentation = manifest.Presentation
	// BuildOptions selects protocol and addressing for a manifest.
	BuildOptions = manifest.BuildOptions
	// Origin serves a presentation's documents to the simulator.
	Origin = origin.Origin
)

// Network.
type (
	// Profile is a piecewise-constant bandwidth schedule.
	Profile = netem.Profile
	// NetworkConfig holds the TCP/latency model parameters.
	NetworkConfig = simnet.Config
	// Network is the deterministic fluid network simulator.
	Network = simnet.Network
)

// Player.
type (
	// PlayerConfig parameterises the client engine.
	PlayerConfig = player.Config
	// Session is one virtual-time streaming session.
	Session = player.Session
	// Result is everything a session produces.
	Result = player.Result
	// Algorithm is a track-selection policy.
	Algorithm = adaptation.Algorithm
	// Estimator is a bandwidth estimator.
	Estimator = adaptation.Estimator
	// ReplacementPolicy is a segment-replacement policy.
	ReplacementPolicy = replacement.Policy
)

// Measurement.
type (
	// Report is the paper's QoE metric set.
	Report = qoe.Report
	// Transaction is one observed HTTP exchange.
	Transaction = traffic.Transaction
	// TrafficResult is the analyzer output for a session.
	TrafficResult = traffic.Result
	// UISample is one playback-progress observation.
	UISample = uimon.Sample
	// Service is one of the paper's twelve service models.
	Service = services.Service
)

// GenerateVideo builds deterministic synthetic content.
func GenerateVideo(cfg MediaConfig) (*Video, error) { return media.Generate(cfg) }

// BuildManifest derives the manifest-level description of a video.
func BuildManifest(v *Video, opts BuildOptions) *Presentation { return manifest.Build(v, opts) }

// NewOrigin encodes a presentation's wire documents and serves them.
func NewOrigin(p *Presentation) (*Origin, error) { return origin.New(p) }

// CellularProfile returns synthetic cellular trace i (1..14), sorted by
// ascending average bandwidth like the paper's Profile 1..14.
func CellularProfile(i int) *Profile { return netem.Cellular(i) }

// CellularProfiles returns all 14 synthetic traces.
func CellularProfiles() []*Profile { return netem.CellularSet() }

// ConstantProfile returns a fixed-bandwidth profile (bits/s, seconds).
func ConstantProfile(bps, dur float64) *Profile { return netem.Constant("constant", bps, dur) }

// StepProfile returns the paper's step-function probe profile.
func StepProfile(before, after, switchAt, dur float64) *Profile {
	return netem.Step("step", before, after, switchAt, dur)
}

// NewNetwork creates a simulated network over a profile. A zero-value
// NetworkConfig gets sensible defaults (70 ms RTT, IW10, slow start).
func NewNetwork(cfg NetworkConfig, p *Profile) *Network { return simnet.New(cfg, p) }

// DefaultNetworkConfig returns the default transport parameters.
func DefaultNetworkConfig() NetworkConfig { return simnet.DefaultConfig() }

// NewSession builds a virtual-time streaming session.
func NewSession(cfg PlayerConfig, org *Origin, net *Network) (*Session, error) {
	return player.NewSession(cfg, org, net)
}

// Group coordinates multiple sessions over one shared network (the
// multi-client fairness scenario).
type Group = player.Group

// NewGroup creates a multi-session coordinator; add sessions built over
// the same Network and call Run.
func NewGroup() *Group { return player.NewGroup() }

// Stream runs a player config against an origin over a profile for dur
// seconds of virtual time (0 = the paper's 10-minute session).
func Stream(cfg PlayerConfig, org *Origin, p *Profile, dur float64) (*Result, error) {
	return services.RunWithOrigin(cfg, org, p, dur, nil)
}

// QoE computes the paper's QoE metrics from a session result.
func QoE(res *Result) Report { return qoe.FromResult(res) }

// AnalyzeTraffic reconstructs segment downloads from an HTTP log the way
// the paper's traffic analyzer does (§2.3).
func AnalyzeTraffic(name string, txs []Transaction) (*TrafficResult, error) {
	return traffic.Analyze(name, txs)
}

// UISamples converts a session result into the 1 Hz progress samples a UI
// monitor would have captured (§2.4).
func UISamples(res *Result) []UISample { return uimon.FromResult(res) }

// Services returns the twelve service models (H1–H6, D1–D4, S1–S2).
func Services() []*Service { return services.All() }

// RadioModel is the LTE RRC energy model (§3.3.2).
type RadioModel = energy.Model

// RadioUsage is the per-session radio-state and energy accounting.
type RadioUsage = energy.Usage

// RadioEnergy estimates the cellular radio energy a session's traffic
// pattern costs, under typical LTE parameters.
func RadioEnergy(res *Result) RadioUsage {
	return energy.DefaultLTE().Analyze(res.Transactions, res.EndTime)
}

// ServiceByName returns one service model, or nil.
func ServiceByName(name string) *Service { return services.ByName(name) }

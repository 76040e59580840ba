// Package services defines the twelve anonymised VOD services the paper
// studies — H1–H6 (HLS), D1–D4 (DASH) and S1–S2 (SmoothStreaming) — as
// parameterised server/player models. Every design axis of Table 1
// (segment duration, separate audio, connection count and persistence,
// startup buffer and track, pausing/resuming thresholds, stability,
// aggressiveness, buffer-aware down-switching) and every defect of
// Table 2 (high bottom track, declared-only adaptation, desynced
// audio/video, non-persistent connections, low resume threshold,
// single-segment startup, oscillating selection, immediate ramp-down,
// harmful segment replacement) appears explicitly in these definitions.
//
// The paper anonymises the real services; these models are synthetic
// reconstructions from its published parameters, not the actual apps.
package services

import (
	"fmt"

	"repro/internal/adaptation"
	"repro/internal/manifest"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/player"
	"repro/internal/replacement"
	"repro/internal/simnet"
)

// Service bundles the server-side and client-side model of one studied
// app.
type Service struct {
	// Name is the paper's identifier ("H1".."S2").
	Name string
	// Media describes the content encoding the service serves.
	Media media.Config
	// Build selects the wire protocol and addressing.
	Build manifest.BuildOptions
	// Player is the client model (Table 1 columns + Table 2 defects).
	Player player.Config
	// OriginOptions tunes the origin (D3 encrypts its MPD, §2.3).
	OriginOptions origin.Options
	// Issues lists the Table 2 defects this service exhibits.
	Issues []string
}

// mbps converts a Table 1 style Mbit/s number to bits/s.
func mbps(m float64) float64 { return m * 1e6 }

// targets derives encoder target bitrates from a declared ladder given
// the declared-bitrate policy and VBR spread.
func targets(declared []float64, pol media.DeclaredPolicy, enc media.Encoding, spread float64) []float64 {
	out := make([]float64, len(declared))
	for i, d := range declared {
		t := mbps(d)
		if pol == media.DeclarePeak && enc == media.VBR {
			t /= spread
		}
		out[i] = t
	}
	return out
}

const videoDuration = 1200 // seconds of content, > the 600 s sessions

// All returns the twelve service definitions.
func All() []*Service {
	return []*Service{H1(), H2(), H3(), H4(), H5(), H6(), D1(), D2(), D3(), D4(), S1(), S2()}
}

// ByName returns the named service or nil.
func ByName(name string) *Service {
	for _, s := range All() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func hlsMedia(name string, segDur, spread float64, enc media.Encoding, declared []float64, seed int64) media.Config {
	pol := media.DeclarePeak
	return media.Config{
		Name: name, Duration: videoDuration, SegmentDuration: segDur,
		TargetBitrates: targets(declared, pol, enc, spread),
		Encoding:       enc, VBRSpread: spread, DeclaredPolicy: pol, Seed: seed,
	}
}

// H1 performs contiguous segment replacement and ramps down immediately
// on bandwidth dips despite a large buffer.
func H1() *Service {
	return &Service{
		Name:  "H1",
		Media: hlsMedia("h1", 4, 2, media.VBR, []float64{0.35, 0.63, 1.15, 2.1, 3.5}, 101),
		Build: manifest.BuildOptions{Protocol: manifest.HLS},
		Player: player.Config{
			Name: "H1", StartupBufferSec: 8, StartupTrack: 1,
			PauseThresholdSec: 95, ResumeThresholdSec: 85,
			MaxConnections: 1, Persistent: true, Scheduler: player.SchedulerSingle,
			Algorithm:   adaptation.Throughput{Factor: 0.75},
			Replacement: replacement.ContiguousOnUpswitch{},
		},
		Issues: []string{"segment replacement can fetch worse quality", "ramps down with high buffer"},
	}
}

// H2 uses non-persistent connections and a high bottom track, but
// protects quality with a 40 s down-switch buffer threshold.
func H2() *Service {
	return &Service{
		Name:  "H2",
		Media: hlsMedia("h2", 2, 1.1, media.CBR, []float64{0.8, 1.33, 2.4, 4.0}, 102),
		Build: manifest.BuildOptions{Protocol: manifest.HLS},
		Player: player.Config{
			Name: "H2", StartupBufferSec: 8, StartupTrack: 1,
			PauseThresholdSec: 90, ResumeThresholdSec: 84,
			MaxConnections: 1, Persistent: false, Scheduler: player.SchedulerSingle,
			Algorithm: adaptation.Throughput{Factor: 0.75, DecreaseBufferSec: 40},
		},
		Issues: []string{"lowest track bitrate set high", "non-persistent TCP"},
	}
}

// H3 starts playback after a single 9 s segment at a ~1 Mbit/s startup
// track — the startup-stall case study of Figure 14.
func H3() *Service {
	return &Service{
		Name:  "H3",
		Media: hlsMedia("h3", 9, 1.1, media.CBR, []float64{0.3, 0.55, 1.05, 1.9, 3.4}, 103),
		Build: manifest.BuildOptions{Protocol: manifest.HLS},
		Player: player.Config{
			Name: "H3", StartupBufferSec: 9, StartupTrack: 2,
			PauseThresholdSec: 40, ResumeThresholdSec: 30,
			MaxConnections: 1, Persistent: false, Scheduler: player.SchedulerSingle,
			Algorithm: adaptation.Throughput{Factor: 0.7},
			// H3 keeps selecting the startup track for the second segment
			// ("it may not yet have built up enough information about the
			// actual network condition", Figure 14).
			MinEstimateSamples: 2,
		},
		Issues: []string{"single-segment startup buffer", "non-persistent TCP"},
	}
}

// H4 is the paper's segment-replacement case study (Figure 10): SR starts
// whenever it switches up, replacing whatever follows — including
// higher-quality segments — and can stall itself.
func H4() *Service {
	return &Service{
		Name:  "H4",
		Media: hlsMedia("h4", 9, 2, media.VBR, []float64{0.25, 0.47, 0.9, 1.7, 3.0}, 104),
		Build: manifest.BuildOptions{Protocol: manifest.HLS},
		Player: player.Config{
			Name: "H4", StartupBufferSec: 9, StartupTrack: 1,
			PauseThresholdSec: 155, ResumeThresholdSec: 135,
			MaxConnections: 1, Persistent: true, Scheduler: player.SchedulerSingle,
			Algorithm:   adaptation.Throughput{Factor: 0.75},
			Replacement: replacement.ContiguousOnUpswitch{IgnoreBufferedQuality: true},
		},
		Issues: []string{"segment replacement can fetch worse quality", "single-segment startup buffer", "ramps down with high buffer"},
	}
}

// H5 pairs a high bottom track (560 kbit/s) with small buffer thresholds;
// it always stalls on the two lowest-bandwidth profiles (§3.1).
func H5() *Service {
	return &Service{
		Name:  "H5",
		Media: hlsMedia("h5", 6, 1.25, media.VBR, []float64{0.56, 1.0, 1.85, 3.3, 5.5}, 105),
		Build: manifest.BuildOptions{Protocol: manifest.HLS},
		Player: player.Config{
			Name: "H5", StartupBufferSec: 12, StartupTrack: 2,
			PauseThresholdSec: 30, ResumeThresholdSec: 20,
			MaxConnections: 1, Persistent: false, Scheduler: player.SchedulerSingle,
			Algorithm: adaptation.Throughput{Factor: 0.75},
		},
		Issues: []string{"lowest track bitrate set high", "non-persistent TCP"},
	}
}

// H6 uses 10 s segments with a single-segment startup buffer.
func H6() *Service {
	return &Service{
		Name:  "H6",
		Media: hlsMedia("h6", 10, 1.1, media.CBR, []float64{0.3, 0.5, 0.88, 1.6, 2.8, 4.5}, 106),
		Build: manifest.BuildOptions{Protocol: manifest.HLS},
		Player: player.Config{
			Name: "H6", StartupBufferSec: 10, StartupTrack: 2,
			PauseThresholdSec: 80, ResumeThresholdSec: 70,
			MaxConnections: 1, Persistent: true, Scheduler: player.SchedulerSingle,
			Algorithm: adaptation.Throughput{Factor: 0.7},
		},
		Issues: []string{"single-segment startup buffer", "ramps down with high buffer"},
	}
}

// D1 pipelines video on five of its six connections with audio on the
// sixth (desynced, Figure 6) and runs the oscillating greedy selection
// that never stabilises (Figure 8).
func D1() *Service {
	return &Service{
		Name: "D1",
		Media: media.Config{
			Name: "d1", Duration: videoDuration, SegmentDuration: 5,
			TargetBitrates: targets([]float64{0.2, 0.41, 0.8, 1.5, 2.8, 5.0}, media.DeclarePeak, media.VBR, 2),
			Encoding:       media.VBR, VBRSpread: 2, DeclaredPolicy: media.DeclarePeak,
			SeparateAudio: true, AudioBitrate: 96e3, AudioSegmentDuration: 2, Seed: 201,
		},
		Build: manifest.BuildOptions{Protocol: manifest.DASH, Addressing: manifest.RangesInManifest},
		Player: player.Config{
			Name: "D1", StartupBufferSec: 15, StartupTrack: 1,
			PauseThresholdSec: 182, ResumeThresholdSec: 178,
			MaxConnections: 6, Persistent: true,
			Scheduler: player.SchedulerParallel, Audio: player.AudioDesynced,
			Algorithm: adaptation.OscillatingGreedy{Deadband: 0.5},
			// D1's MPD lists byte ranges, so its player can read actual
			// segment sizes; the greedy logic uses them to bound probes.
			ExposeSegmentSizes: true,
		},
		Issues: []string{"audio/video downloads out of sync", "selection does not stabilize", "ramps down with high buffer"},
	}
}

// D2 reads track quality only from the declared bitrate even though its
// sidx exposes actual sizes; with declared = 2× average actual, it leaves
// two thirds of the link idle (§4.2).
func D2() *Service {
	return &Service{
		Name: "D2",
		Media: media.Config{
			Name: "d2", Duration: videoDuration, SegmentDuration: 5,
			TargetBitrates: targets([]float64{0.16, 0.30, 0.6, 1.2, 2.2, 4.0}, media.DeclarePeak, media.VBR, 2),
			Encoding:       media.VBR, VBRSpread: 2, DeclaredPolicy: media.DeclarePeak,
			SeparateAudio: true, AudioBitrate: 96e3, AudioSegmentDuration: 5, Seed: 202,
		},
		Build: manifest.BuildOptions{Protocol: manifest.DASH, Addressing: manifest.SidxRanges},
		Player: player.Config{
			Name: "D2", StartupBufferSec: 5, StartupTrack: 1,
			PauseThresholdSec: 30, ResumeThresholdSec: 25,
			MaxConnections: 2, Persistent: true,
			Scheduler: player.SchedulerParallel, Audio: player.AudioSynced,
			Algorithm: adaptation.Throughput{Factor: 0.65},
		},
		Issues: []string{"adaptation ignores actual segment bitrate", "single-segment startup buffer"},
	}
}

// D3 splits each segment across three connections, adapts on actual
// bitrates from the sidx (aggressive in Figure 9) and protects quality
// with a 30 s down-switch threshold.
func D3() *Service {
	return &Service{
		Name: "D3",
		Media: media.Config{
			Name: "d3", Duration: videoDuration, SegmentDuration: 2,
			TargetBitrates: targets([]float64{0.2, 0.40, 0.75, 1.4, 2.6, 4.8}, media.DeclarePeak, media.VBR, 2),
			Encoding:       media.VBR, VBRSpread: 2, DeclaredPolicy: media.DeclarePeak,
			SeparateAudio: true, AudioBitrate: 96e3, AudioSegmentDuration: 2, Seed: 203,
		},
		Build: manifest.BuildOptions{Protocol: manifest.DASH, Addressing: manifest.SidxRanges},
		Player: player.Config{
			Name: "D3", StartupBufferSec: 8, StartupTrack: 1,
			PauseThresholdSec: 120, ResumeThresholdSec: 90,
			MaxConnections: 3, Persistent: true,
			Scheduler: player.SchedulerSplit, Audio: player.AudioSynced,
			Algorithm:          adaptation.Throughput{Factor: 0.6, UseActual: true, Horizon: 3, DecreaseBufferSec: 30, MinBufferForUpSec: 40},
			ExposeSegmentSizes: true,
		},
		// D3 encrypts its MPD at the application layer (§2.3); only the
		// sidx boxes remain readable to an on-path observer.
		OriginOptions: origin.Options{ObfuscateManifest: true},
	}
}

// D4 starts playback on a single 6 s segment.
func D4() *Service {
	return &Service{
		Name: "D4",
		Media: media.Config{
			Name: "d4", Duration: videoDuration, SegmentDuration: 6,
			TargetBitrates: targets([]float64{0.35, 0.67, 1.3, 2.4, 4.4}, media.DeclarePeak, media.VBR, 1.3),
			Encoding:       media.VBR, VBRSpread: 1.3, DeclaredPolicy: media.DeclarePeak,
			SeparateAudio: true, AudioBitrate: 96e3, AudioSegmentDuration: 6, Seed: 204,
		},
		Build: manifest.BuildOptions{Protocol: manifest.DASH, Addressing: manifest.SidxRanges},
		Player: player.Config{
			Name: "D4", StartupBufferSec: 6, StartupTrack: 1,
			PauseThresholdSec: 34, ResumeThresholdSec: 15,
			MaxConnections: 3, Persistent: true, VideoPipeline: 2,
			Scheduler: player.SchedulerParallel, Audio: player.AudioSynced,
			Algorithm: adaptation.Throughput{Factor: 0.75},
		},
		Issues: []string{"single-segment startup buffer"},
	}
}

// S1 declares average bitrates and streams tracks whose declared rate
// nearly equals the link rate (aggressive), with a high bottom track.
func S1() *Service {
	return &Service{
		Name: "S1",
		Media: media.Config{
			Name: "s1", Duration: videoDuration, SegmentDuration: 2,
			TargetBitrates: targets([]float64{0.6, 0.9, 1.35, 2.0, 2.9, 3.9}, media.DeclareAverage, media.VBR, 2),
			Encoding:       media.VBR, VBRSpread: 2, DeclaredPolicy: media.DeclareAverage,
			SeparateAudio: true, AudioBitrate: 96e3, AudioSegmentDuration: 2, Seed: 205,
		},
		Build: manifest.BuildOptions{Protocol: manifest.Smooth},
		Player: player.Config{
			Name: "S1", StartupBufferSec: 16, StartupTrack: 2,
			PauseThresholdSec: 180, ResumeThresholdSec: 175,
			MaxConnections: 2, Persistent: true,
			Scheduler: player.SchedulerParallel, Audio: player.AudioSynced,
			Algorithm: adaptation.Throughput{Factor: 1.05, DecreaseBufferSec: 50},
		},
		Issues: []string{"lowest track bitrate set high"},
	}
}

// S2 resumes downloading only when the buffer has drained to 4 s — the
// stall case study of Figure 7.
func S2() *Service {
	return &Service{
		Name: "S2",
		Media: media.Config{
			Name: "s2", Duration: videoDuration, SegmentDuration: 3,
			TargetBitrates: targets([]float64{0.2, 0.4, 0.76, 1.4, 2.5, 4.2}, media.DeclareAverage, media.VBR, 2),
			Encoding:       media.VBR, VBRSpread: 2, DeclaredPolicy: media.DeclareAverage,
			SeparateAudio: true, AudioBitrate: 96e3, AudioSegmentDuration: 2, Seed: 206,
		},
		Build: manifest.BuildOptions{Protocol: manifest.Smooth},
		Player: player.Config{
			Name: "S2", StartupBufferSec: 6, StartupTrack: 2,
			PauseThresholdSec: 30, ResumeThresholdSec: 4,
			MaxConnections: 2, Persistent: true,
			Scheduler: player.SchedulerParallel, Audio: player.AudioSynced,
			Algorithm: adaptation.Throughput{Factor: 0.75},
		},
		Issues: []string{"resume threshold too low"},
	}
}

// Origin generates the service's content and wraps it in an origin.
func (s *Service) Origin() (*origin.Origin, error) {
	v, err := media.Generate(s.Media)
	if err != nil {
		return nil, fmt.Errorf("services: %s: %w", s.Name, err)
	}
	return origin.NewWithOptions(manifest.Build(v, s.Build), s.OriginOptions)
}

// Video generates the service's content description.
func (s *Service) Video() (*media.Video, error) {
	return media.Generate(s.Media)
}

// Run streams the service over the given bandwidth profile for dur
// seconds of virtual time and returns the session result. A zero dur
// runs the paper's 10-minute session. The player config may be adjusted
// via mutate (pass nil for the stock service).
func (s *Service) Run(p *netem.Profile, dur float64, mutate func(*player.Config)) (*player.Result, error) {
	org, err := s.Origin()
	if err != nil {
		return nil, err
	}
	return RunWithOrigin(s.Player, org, p, dur, mutate)
}

// Resolve applies the duration override and the mutator to a player
// config exactly as RunWithOrigin does, and returns the config the
// session will actually be built from. Exported so the experiment cache
// can fingerprint the resolved config without running the session.
func Resolve(cfg player.Config, dur float64, mutate func(*player.Config)) player.Config {
	if dur > 0 {
		cfg.SessionDuration = dur
	}
	if mutate != nil {
		// A copy, so only a call that mutates moves the config to the heap.
		m := cfg
		mutate(&m)
		return m
	}
	return cfg
}

// RunWithOrigin runs a player config against a prebuilt origin (callers
// that sweep many profiles reuse the origin to avoid re-encoding).
func RunWithOrigin(cfg player.Config, org *origin.Origin, p *netem.Profile, dur float64, mutate func(*player.Config)) (*player.Result, error) {
	cfg = Resolve(cfg, dur, mutate)
	net := simnet.New(simnet.DefaultConfig(), p)
	sess, err := player.NewSession(cfg, org, net)
	if err != nil {
		return nil, err
	}
	return sess.Run(), nil
}

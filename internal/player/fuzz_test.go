package player

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/adaptation"
	"repro/internal/manifest"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/replacement"
	"repro/internal/simnet"
)

// randomSession derives content, player configuration and network from
// one seed: random ladder, encoding, addressing, scheduler, thresholds,
// replacement policy and algorithm — every combination must
// terminate and satisfy the structural invariants.
func randomSession(seed int64) (Config, *origin.Origin, *netem.Profile, int, error) {
	rng := rand.New(rand.NewSource(seed))

	// Random content.
	nTracks := rng.Intn(4) + 2
	ladder := make([]float64, nTracks)
	b := 150e3 * (1 + rng.Float64())
	for i := range ladder {
		ladder[i] = b
		b *= 1.5 + 0.5*rng.Float64()
	}
	mcfg := media.Config{
		Name: "f", Duration: 300, SegmentDuration: float64(rng.Intn(8) + 2),
		TargetBitrates: ladder,
		VBRSpread:      1.3 + rng.Float64(),
		Seed:           seed,
	}
	if rng.Intn(2) == 0 {
		mcfg.Encoding = media.VBR
	}
	addr := manifest.SidxRanges
	switch rng.Intn(3) {
	case 1:
		addr = manifest.RangesInManifest
	case 2:
		addr = manifest.TemplateNumber
	}
	sep := rng.Intn(2) == 0
	if sep {
		mcfg.SeparateAudio = true
		mcfg.AudioSegmentDuration = float64(rng.Intn(4) + 1)
	}
	v, err := media.Generate(mcfg)
	if err != nil {
		return Config{}, nil, nil, 0, err
	}
	org, err := origin.New(manifest.Build(v, manifest.BuildOptions{Protocol: manifest.DASH, Addressing: addr}))
	if err != nil {
		return Config{}, nil, nil, 0, err
	}

	// Random player.
	pause := 15 + rng.Float64()*100
	cfg := Config{
		Name:               "fuzz",
		SessionDuration:    120,
		StartupBufferSec:   2 + rng.Float64()*12,
		StartupSegments:    rng.Intn(3) + 1,
		StartupTrack:       rng.Intn(nTracks),
		PauseThresholdSec:  pause,
		ResumeThresholdSec: pause * (0.2 + 0.7*rng.Float64()),
		MaxConnections:     rng.Intn(4) + 1,
		Persistent:         rng.Intn(2) == 0,
		MinEstimateSamples: rng.Intn(3) + 1,
		ExposeSegmentSizes: rng.Intn(2) == 0,
	}
	switch rng.Intn(3) {
	case 0:
		cfg.Scheduler = SchedulerSingle
		cfg.MaxConnections = 1
	case 1:
		cfg.Scheduler = SchedulerParallel
		cfg.VideoPipeline = rng.Intn(cfg.MaxConnections) + 1
		if rng.Intn(2) == 0 && sep {
			cfg.Audio = AudioDesynced
		}
	case 2:
		cfg.Scheduler = SchedulerSplit
		cfg.SplitSkew = rng.Float64() * 2
	}
	switch rng.Intn(5) {
	case 0:
		cfg.Algorithm = adaptation.Throughput{Factor: 0.5 + rng.Float64()*0.6}
	case 1:
		cfg.Algorithm = adaptation.DefaultHysteresis()
	case 2:
		cfg.Algorithm = adaptation.BufferBased{Reservoir: 5, Cushion: 20 + rng.Float64()*40}
	case 3:
		cfg.Algorithm = adaptation.OscillatingGreedy{Deadband: 0.5}
	default:
		cfg.Algorithm = adaptation.ProbeAdapt{}
	}
	if cfg.Scheduler == SchedulerSingle {
		switch rng.Intn(3) {
		case 0:
			cfg.Replacement = replacement.ContiguousOnUpswitch{IgnoreBufferedQuality: rng.Intn(2) == 0}
		case 1:
			cfg.Replacement = replacement.PerSegment{MinBufferSec: 10, CapTrack: rng.Intn(nTracks+1) - 1}
			cfg.MidBufferDiscard = true
		}
	}

	// Random network.
	samples := make([]float64, 120)
	for i := range samples {
		samples[i] = 100e3 + rng.Float64()*8e6
	}
	p := &netem.Profile{Name: "fz", Samples: samples}
	return cfg, org, p, nTracks, nil
}

// checkRandomSession runs one seeded random session and verifies the
// structural invariants.
func checkRandomSession(seed int64) error {
	cfg, org, p, nTracks, err := randomSession(seed)
	if err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	// Every completion also compares the prev-track table with the log
	// scan it replaced and checks the buffers' order (prevtrack_test.go).
	res, err := runScanChecked(cfg, org, p)
	if err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}

	if res.EndTime > cfg.SessionDuration+1e-6 || res.EndTime < 0 {
		return fmt.Errorf("seed %d: end time %v", seed, res.EndTime)
	}
	if res.Summary.WastedBytes < 0 || res.Summary.WastedBytes > res.Summary.TotalBytes+1 {
		return fmt.Errorf("seed %d: waste %v of %v", seed, res.Summary.WastedBytes, res.Summary.TotalBytes)
	}
	for i, st := range res.Stalls {
		if st.End < st.Start {
			return fmt.Errorf("seed %d: stall %d reversed", seed, i)
		}
	}
	for _, tr := range res.Displayed {
		if tr < -1 || tr >= nTracks {
			return fmt.Errorf("seed %d: displayed track %d", seed, tr)
		}
	}
	var txBytes float64
	for _, tx := range res.Transactions {
		if !tx.Rejected {
			txBytes += float64(tx.Bytes)
		}
	}
	if diff := txBytes - res.Summary.TotalBytes; diff < -(1 + res.Summary.TotalBytes/1e3) {
		return fmt.Errorf("seed %d: transactions %v < total %v", seed, txBytes, res.Summary.TotalBytes)
	}
	return nil
}

func TestQuickSessionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		if err := checkRandomSession(seed); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSessionInvariants is the native-fuzzing entry point for the same
// property; CI runs it for a few seconds per push (`go test
// -fuzz=FuzzSessionInvariants -fuzztime=10s`) so the corpus keeps
// exercising the scheduler.
func FuzzSessionInvariants(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, -1, 12345, -987654321} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := checkRandomSession(seed); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzSessionDeterminism asserts the determinism contract end to end:
// the same seed must produce bit-identical session results, whatever
// scheduler or replacement policy the seed selects.
func FuzzSessionDeterminism(f *testing.F) {
	for _, seed := range []int64{3, 99, -42, 2017} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		run := func() *Result {
			cfg, org, p, _, err := randomSession(seed)
			if err != nil {
				t.Skip(err)
			}
			sess, err := NewSession(cfg, org, simnet.New(simnet.DefaultConfig(), p))
			if err != nil {
				t.Skip(err)
			}
			return sess.Run()
		}
		a, b := run(), run()
		if a.EndTime != b.EndTime || a.Summary.TotalBytes != b.Summary.TotalBytes ||
			a.Summary.WastedBytes != b.Summary.WastedBytes || a.StartupDelay != b.StartupDelay ||
			len(a.Stalls) != len(b.Stalls) || len(a.Transactions) != len(b.Transactions) {
			t.Fatalf("seed %d: two runs diverged:\n%+v\n%+v", seed, a, b)
		}
		for i := range a.Displayed {
			if a.Displayed[i] != b.Displayed[i] {
				t.Fatalf("seed %d: displayed track diverged at segment %d", seed, i)
			}
		}
	})
}

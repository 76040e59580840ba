// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulated testbed. Each experiment is addressable
// by the paper's artifact id (fig3..fig15, table1, table2, sr_whatif) and
// produces text tables/plots with the same rows and series the paper
// reports. EXPERIMENTS.md in the repository root records paper-vs-
// measured values for each.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/adaptation"
	"repro/internal/expcache"
	"repro/internal/manifest"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/player"
	"repro/internal/services"
	"repro/internal/textplot"
)

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the artifact id ("fig8", "table1", ...).
	ID string
	// Title describes the artifact.
	Title string
	// Run regenerates it. Cancelling ctx stops the experiment's internal
	// fan-out early; outputs are only meaningful when Run returns nil.
	Run func(ctx context.Context) ([]*textplot.Table, []string, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig3", "Collected cellular network bandwidth profiles", Fig3},
		{"fig4", "Declared bitrates of tracks for different services", Fig4},
		{"fig5", "Actual bitrate normalized by declared bitrate", Fig5},
		{"table1", "Design choices (black-box probed)", Table1},
		{"table2", "Identified QoE-impacting issues", Table2},
		{"fig6", "D1 audio/video download desynchronisation", Fig6},
		{"fig7", "S2 low resuming threshold causes stalls", Fig7},
		{"fig8", "D1 track selection unstable at constant bandwidth", Fig8},
		{"fig9", "Selected declared bitrate vs constant bandwidth", Fig9},
		{"fig10", "H4 segment replacement fetches worse quality", Fig10},
		{"sr_whatif", "What-if analysis of H4-style segment replacement", SRWhatIf},
		{"fig11", "Improved per-segment SR: track distribution and cost", Fig11},
		{"fig12", "D2 ignores actual bitrates (manifest-variant probe)", Fig12},
		{"fig13", "Actual-bitrate-aware adaptation", Fig13},
		{"fig14", "H3 stalls at startup (single-segment startup buffer)", Fig14},
		{"fig15", "Startup delay and stall ratio vs startup settings", Fig15},
		{"abl_energy", "Ablation: download-control thresholds vs radio energy", AblEnergy},
		{"abl_segdur", "Ablation: segment duration tradeoff", AblSegDur},
		{"abl_split", "Ablation: sub-segment split-point sensitivity (D3)", AblSplit},
		{"abl_srcap", "Ablation: SR cap threshold sweep", AblSRCap},
		{"abl_algorithms", "Ablation: adaptation algorithm comparison", AblAlgorithms},
		{"abl_recovery", "Ablation: stall recovery gating", AblRecovery},
		{"abl_abandon", "Ablation: pausing threshold vs abandonment waste", AblAbandon},
		{"abl_fairness", "Ablation: multi-client fairness on a shared link", AblFairness},
	}
}

// byID indexes the registry once; ByID is called per lookup on hot
// paths (every benchmark iteration) and must not rebuild All().
var byID = sync.OnceValue(func() map[string]Experiment {
	all := All()
	m := make(map[string]Experiment, len(all))
	for _, e := range all {
		m[e.ID] = e
	}
	return m
})

// ByID returns the experiment with the given id, or nil.
func ByID(id string) *Experiment {
	if e, ok := byID()[id]; ok {
		return &e
	}
	return nil
}

// serviceOrigin returns the service's origin from the content-addressed
// cache: built exactly once per distinct content even when concurrent
// experiments request it, without one service's build blocking
// another's.
func serviceOrigin(svc *services.Service) (*origin.Origin, error) {
	return expcache.Origin(svc)
}

// run streams a stock service over a profile for dur seconds, over the
// service's shared origin.
func run(svc *services.Service, p *netem.Profile, dur float64) (*player.Result, error) {
	return expcache.RunService(svc, p, dur, nil)
}

// ---- the ExoPlayer-model player used by §4's best-practice experiments ----

// exoCache deduplicates the §4 test streams across experiments: several
// artifacts (Fig11, AblSRCap, ...) request the same (segDur, seed) pair,
// and the content is deterministic, so each is generated once.
type exoKey struct {
	segDur float64
	seed   int64
}

var exoCache expcache.Memo[exoKey, *origin.Origin]

// exoContent builds the 7-track VBR test stream of §4.2/§4.1.3 (the paper
// VBR-encodes Sintel into 7 tracks with peak = 2× average and plays it in
// a modified ExoPlayer). DASH/sidx addressing exposes per-segment sizes
// so the actual-bitrate-aware variants have something to read.
func exoContent(segDur float64, seed int64) (*origin.Origin, error) {
	return exoCache.Get(exoKey{segDur, seed}, func() (*origin.Origin, error) {
		return buildExoContent(segDur, seed)
	})
}

func buildExoContent(segDur float64, seed int64) (*origin.Origin, error) {
	cfg := media.Config{
		Name: "sintel", Duration: 1200, SegmentDuration: segDur,
		TargetBitrates: []float64{200e3, 350e3, 600e3, 1.0e6, 1.7e6, 2.7e6, 4.2e6},
		Encoding:       media.VBR, VBRSpread: 2, DeclaredPolicy: media.DeclarePeak,
		Seed: seed,
	}
	v, err := media.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return origin.New(manifest.Build(v, manifest.BuildOptions{
		Protocol: manifest.DASH, Addressing: manifest.SidxRanges,
	}))
}

// exoPlayer returns the ExoPlayer-default player model: single
// connection, persistent, 0.75 bandwidth fraction with buffer hysteresis,
// pause at the default buffer target.
func exoPlayer(name string) player.Config {
	return player.Config{
		Name:               name,
		StartupBufferSec:   8,
		StartupTrack:       1,
		PauseThresholdSec:  60,
		ResumeThresholdSec: 45,
		MaxConnections:     1,
		Persistent:         true,
		Scheduler:          player.SchedulerSingle,
		Algorithm:          adaptation.DefaultHysteresis(),
		// The first throughput samples alone are not trusted (the window
		// during which the startup settings of §4.3 matter).
		MinEstimateSamples: 3,
	}
}

// fmtLadder prints a declared ladder in Mbit/s.
func fmtLadder(declared []float64) string {
	s := ""
	for i, d := range declared {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.2f", d/1e6)
	}
	return s
}

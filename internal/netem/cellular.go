package netem

import (
	"math"
	"math/rand"
	"sync"
)

// Cellular trace synthesis.
//
// The paper recorded 14 throughput traces over a real cellular network "in
// various scenarios covering different movement patterns, signal strength
// and locations", each 10 minutes at 1 s granularity, with averages
// spanning roughly 1–40 Mbit/s (Figure 3). The recordings are not public,
// so we synthesise stand-ins from a 3-state Markov fading model (deep fade
// / mid / good) with lognormal per-second variation. The experiments only
// depend on the traces' qualitative shape: the spread of averages, the
// presence of second-scale variability, and the fact that the lowest two
// profiles cannot sustain a ~500 kbit/s bottom track while ~200 kbit/s
// tracks survive (§3.1).

// CellularCount is the number of synthetic cellular profiles, matching the
// paper's 14 recorded traces.
const CellularCount = 14

// cellularTargets holds the target mean bandwidth (Mbit/s) for each
// profile after sorting; chosen to span Figure 3's ~1–40 Mbit/s range with
// the two lowest profiles below 1.5 Mbit/s.
var cellularTargets = []float64{0.6, 1.0, 1.6, 2.2, 3.0, 4.0, 5.5, 7.5, 10, 13, 17, 22, 30, 40}

// scenario captures the qualitative recording condition of a trace:
// how quickly the channel state changes (movement) and how deep fades go
// (signal strength).
type scenario struct {
	switchProb float64 // per-second probability of changing Markov state
	fadeDepth  float64 // multiplier applied in the deep-fade state
	sigma      float64 // lognormal per-second noise
}

var scenarios = []scenario{
	{0.10, 0.35, 0.25}, // stationary, strong signal
	{0.08, 0.25, 0.35}, // stationary, weak signal
	{0.22, 0.30, 0.45}, // walking
	{0.30, 0.25, 0.55}, // driving
}

// Cellular returns synthetic cellular profile i (1-based, 1..CellularCount),
// 600 seconds at 1 s granularity, sorted so that profile 1 has the lowest
// average bandwidth, like the paper's Profile 1..14.
func Cellular(i int) *Profile {
	ps := CellularSet()
	return ps[i-1]
}

// CellularSet returns all 14 synthetic cellular profiles sorted by
// ascending average bandwidth (the canonical seed every experiment uses),
// freshly generated: the caller owns them.
func CellularSet() []*Profile {
	return CellularSetSeed(0)
}

// CanonicalCellularSet returns the same 14 profiles as CellularSet, but
// generated once per process and shared by every caller: the slice and
// the profiles are READ-ONLY. The simulators take it (a fleet run per
// sweep point and every experiment read the traces without ever writing
// one); a caller that wants to edit a profile takes CellularSet's copy.
func CanonicalCellularSet() []*Profile { return canonicalCellular() }

var canonicalCellular = sync.OnceValue(CellularSet)

// CellularSetSeed returns an alternative draw of the 14 profiles — same
// targets and scenarios, different sample noise. Robustness tests rerun
// key experiments across seeds to check that the reproduced shapes are
// not artefacts of one particular trace draw.
func CellularSetSeed(seed int64) []*Profile {
	ps := make([]*Profile, CellularCount)
	for i := 0; i < CellularCount; i++ {
		ps[i] = genCellular(i, seed)
	}
	SortByAverage("cellular", ps)
	return ps
}

func genCellular(i int, seed int64) *Profile {
	const dur = 600 // seconds, matching the paper's 10 min sessions
	rng := rand.New(rand.NewSource(int64(1000+37*i) + seed*7919))
	sc := scenarios[i%len(scenarios)]
	target := cellularTargets[i] * 1e6

	// 3-state Markov chain over channel quality multipliers.
	states := []float64{sc.fadeDepth, 0.7, 1.6}
	state := 1
	samples := make([]float64, dur)
	for t := 0; t < dur; t++ {
		if rng.Float64() < sc.switchProb {
			state = rng.Intn(len(states))
		}
		noise := math.Exp(sc.sigma * rng.NormFloat64())
		samples[t] = states[state] * noise
	}
	// Scale to the target mean, clamp the lognormal tail (real radio
	// links top out; the paper's traces peak near 45 Mbit/s), rescale
	// once to recover the mean, and floor at a small positive rate (a
	// cellular link rarely reads exactly zero for a full second while
	// attached).
	rescale := func() {
		mean := 0.0
		for _, v := range samples {
			mean += v
		}
		mean /= dur
		for t := range samples {
			samples[t] *= target / mean
		}
	}
	rescale()
	cap := min(3.5*target, 50e6)
	for t := range samples {
		if samples[t] > cap {
			samples[t] = cap
		}
	}
	rescale()
	// Deep fades are brief (the Markov dwell time is seconds), so a
	// service with a low bottom track and a healthy buffer rides them
	// out — the paper's D2/D3 never stall on the lowest profiles while
	// H5's 560 kbit/s bottom track cannot keep up (§3.1).
	floor := max(40e3, target/5)
	for t := range samples {
		if samples[t] > 1.2*cap {
			samples[t] = 1.2 * cap
		}
		if samples[t] < floor {
			samples[t] = floor
		}
	}
	return &Profile{Name: "raw", Samples: samples}
}

package player

// Differential and golden tests for the background cohort (cohort.go).
//
// The contract is bit-exactness on two axes. Batching: one Cohort of N
// members must be observationally indistinguishable from the same
// members run as N one-member Cohorts, or as uneven cohorts of 1, 5 and
// N−6, added in the same order — not within a tolerance, but
// byte-identical Summaries — which catches member-id, slab-stride and
// ring-index bugs and survives EngineVersion bumps. Arithmetic: TestCohortGolden pins the member
// Summaries themselves to recorded digests. Every differential test
// builds the same scenario twice (fresh networks, identical
// construction order) and compares exactly.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cdn"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/simnet"
)

// bgDraw is one drawn cohort member: its config (service template plus
// per-viewer duration), arrival, and access trace.
type bgDraw struct {
	cfg     BackgroundConfig
	startAt float64
	trace   *netem.Profile
	full    bool // mixed scenarios: run the full player instead
}

// drawBackgrounds generates a seeded member population over a few
// service-like templates: distinct ladders, segment grids and media
// durations, with per-member session durations and arrivals.
func drawBackgrounds(rng *rand.Rand, n int, mixed bool) []bgDraw {
	traces := netem.CellularSet()
	nTmpl := 2 + rng.Intn(3)
	tmpls := make([]BackgroundConfig, nTmpl)
	for i := range tmpls {
		nr := 2 + rng.Intn(4)
		ladder := make([]float64, nr)
		base := 2e5 * (1 + rng.Float64()*2)
		for r := range ladder {
			ladder[r] = math.Round(base * math.Pow(1.5+rng.Float64(), float64(r)))
		}
		tmpls[i] = BackgroundConfig{
			Declared:        ladder,
			SegmentDuration: float64(2 + 2*rng.Intn(3)),
			MediaDuration:   30 + rng.Float64()*90,
		}
		if rng.Intn(2) == 0 {
			tmpls[i].SafetyFactor = 1.6
		}
	}
	draws := make([]bgDraw, n)
	for i := range draws {
		cfg := tmpls[rng.Intn(nTmpl)]
		cfg.SessionDuration = 15 + rng.Float64()*90
		draws[i] = bgDraw{
			cfg:     cfg,
			startAt: rng.Float64() * 20,
			trace:   traces[rng.Intn(len(traces))],
			full:    mixed && rng.Intn(3) == 0,
		}
	}
	return draws
}

// steppedEdge builds an edge profile whose value actually changes every
// few seconds, so the scenario exercises profile-switch handling, not
// just constant links.
func steppedEdge(rng *rand.Rand, mbps float64, dur float64) *netem.Profile {
	n := int(dur)
	s := make([]float64, n)
	v := mbps * 1e6
	for i := range s {
		if i%4 == 0 {
			v = mbps * 1e6 * (0.5 + rng.Float64())
		}
		s[i] = math.Round(v)
	}
	return &netem.Profile{Name: "steppedEdge", Samples: s}
}

// cloneSummary deep-copies a Summary so slab-aliasing views survive
// comparison after the cohort is gone.
func cloneSummary(s Summary) Summary {
	s.TimeOnTrack = append([]float64(nil), s.TimeOnTrack...)
	return s
}

// cohortCase is one seeded scenario of the suite: a member population
// over a stepped edge on one engine. The differential tests and
// TestCohortGolden walk the same cases.
type cohortCase struct {
	name  string
	scfg  simnet.Config
	edge  *netem.Profile
	draws []bgDraw
}

// newCohortCase draws one case from its seed: the member count (n0 plus
// up to nSpan), the members, then the edge — budget from mbps, which may
// draw from the same stream — over dur seconds.
func newCohortCase(name string, scfg simnet.Config, seed int64, n0, nSpan int, mixed bool, mbps func(*rand.Rand) float64, dur float64) cohortCase {
	rng := rand.New(rand.NewSource(seed))
	draws := drawBackgrounds(rng, n0+rng.Intn(nSpan), mixed)
	return cohortCase{name: name, scfg: scfg, edge: steppedEdge(rng, mbps(rng), dur), draws: draws}
}

// fixedEdgeCases is the core sweep: seeds × contention levels (edge
// budgets from starved to ample).
func fixedEdgeCases() []cohortCase {
	var out []cohortCase
	for _, edge := range []struct {
		name string
		mbps float64
	}{{"tight", 2}, {"medium", 10}, {"loose", 60}} {
		for seed := int64(0); seed < 9; seed++ {
			out = append(out, newCohortCase(fmt.Sprintf("%s/seed%d", edge.name, seed), simnet.DefaultConfig(),
				seed, 3, 10, false, func(*rand.Rand) float64 { return edge.mbps }, 200))
		}
	}
	return out
}

// drawnEdgeCases repeats the sweep with the edge budget drawn per seed.
func drawnEdgeCases() []cohortCase {
	scfg := simnet.DefaultConfig()
	var out []cohortCase
	for seed := int64(20); seed < 32; seed++ {
		out = append(out, newCohortCase(fmt.Sprintf("seed%d", seed), scfg,
			seed, 3, 10, false, func(rng *rand.Rand) float64 { return 3 + rng.Float64()*30 }, 200))
	}
	return out
}

// mixedCases interleaves full player sessions with the background tier
// — the fleet cell layout.
func mixedCases() []cohortCase {
	var out []cohortCase
	for seed := int64(40); seed < 48; seed++ {
		out = append(out, newCohortCase(fmt.Sprintf("seed%d", seed), simnet.DefaultConfig(),
			seed, 4, 8, true, func(rng *rand.Rand) float64 { return 4 + rng.Float64()*20 }, 400))
	}
	return out
}

// partition is how a case's background draws are split into cohorts,
// filled and added in draw order.
type partition int

const (
	oneCohort  partition = iota // every draw in one shared Cohort
	singletons                  // one one-member Cohort each
	uneven                      // Cohorts of 1, 5 and the rest: bases more than one apart
)

// capOf is how many members the k-th cohort takes (0 = all that remain).
func (p partition) capOf(k int) int {
	switch {
	case p == singletons, p == uneven && k == 0:
		return 1
	case p == uneven && k == 1:
		return 5
	}
	return 0
}

// run executes the case over a fresh network and returns the full
// sessions' Summaries and the background members' Summaries, each in
// draw order. Full draws become lean sessions (added to the group as
// drawn, so they precede every cohort); background draws join cohorts
// as the partition says.
func (cc cohortCase) run(t *testing.T, part partition) (sessions, members []Summary) {
	t.Helper()
	net := simnet.New(cc.scfg, cc.edge)
	g := NewGroup()
	var org *origin.Origin
	var ss []*Session
	var cohorts []*Cohort
	for _, d := range cc.draws {
		if d.full {
			if org == nil {
				org = buildOrigin(t, 4, false, media.VBR)
			}
			s, err := NewSession(baseConfig(), org, net)
			if err != nil {
				t.Fatal(err)
			}
			s.SetLean()
			s.SetStartAt(d.startAt)
			s.SetAccessLink(net.NewAccessLink(d.trace))
			if err := g.Add(s); err != nil {
				t.Fatal(err)
			}
			ss = append(ss, s)
			continue
		}
		if k := len(cohorts); k == 0 || cohorts[k-1].Len() == part.capOf(k-1) {
			cohorts = append(cohorts, NewCohort(net))
		}
		c := cohorts[len(cohorts)-1]
		i := c.Add(d.cfg)
		c.SetStartAt(i, d.startAt)
		c.SetAccessProfile(i, d.trace)
	}
	var observed [][]Summary
	for _, c := range cohorts {
		observed = append(observed, observeAll(c))
		if err := g.AddCohort(c); err != nil {
			t.Fatal(err)
		}
	}
	g.Run()
	for _, s := range ss {
		sessions = append(sessions, cloneSummary(*s.Summary()))
	}
	for _, sums := range observed {
		members = append(members, sums...)
	}
	return sessions, members
}

// observeAll makes c's observer keep a deep copy of every member's
// Summary — the only way to read one — in the returned slice, indexed by
// member; call it once every member is added.
func observeAll(c *Cohort) []Summary {
	sums := make([]Summary, c.Len())
	c.SetObserver(func(i int, s *Summary) { sums[i] = cloneSummary(*s) })
	return sums
}

// compareSummaries requires byte-identical digests.
func compareSummaries(t *testing.T, ref, got []Summary) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("member count: %d as singletons vs %d batched", len(ref), len(got))
	}
	for i := range ref {
		if !reflect.DeepEqual(ref[i], got[i]) {
			t.Errorf("member %d diverged:\n singleton: %+v\n batched:   %+v", i, ref[i], got[i])
		}
	}
}

// matchSingletons runs each case as one-member cohorts, as one cohort
// and as uneven cohorts, and requires every Summary — the full
// sessions' too: they are witnesses, their byte streams shift if
// batching perturbs the shared network in any way — to be
// byte-identical across the three.
func matchSingletons(t *testing.T, cases []cohortCase) {
	for _, cc := range cases {
		t.Run(cc.name, func(t *testing.T) {
			refSess, refBg := cc.run(t, singletons)
			for _, part := range []partition{oneCohort, uneven} {
				gotSess, gotBg := cc.run(t, part)
				compareSummaries(t, refSess, gotSess)
				compareSummaries(t, refBg, gotBg)
			}
		})
	}
}

// TestCohortMatchesBackgrounds is the core differential sweep: seeds ×
// contention levels, stepped edge profiles, cellular access traces,
// mixed service templates. Every member's Summary must be
// byte-identical between the per-flow and the batched run.
func TestCohortMatchesBackgrounds(t *testing.T) { matchSingletons(t, fixedEdgeCases()) }

// TestCohortMatchesBackgroundsCellEngine repeats the differential sweep
// over the drawn edge budgets.
func TestCohortMatchesBackgroundsCellEngine(t *testing.T) { matchSingletons(t, drawnEdgeCases()) }

// TestCohortMixedWithSessions requires both the sessions' Summaries and
// the background members' Summaries to be byte-identical however the
// backgrounds are split into cohorts.
func TestCohortMixedWithSessions(t *testing.T) { matchSingletons(t, mixedCases()) }

// summariesDigest is the SHA-256 of every Summary field, floats by bit
// pattern.
func summariesDigest(sums []Summary) string {
	h := sha256.New()
	for _, s := range sums {
		// The literal is the "tainted by a seek" flag every summary hashed
		// as false until the field went with user seeks; the recorded
		// digests include it.
		fmt.Fprintf(h, "%d %d %d false", s.StallCount, s.Switches, s.NonConsecutive)
		for _, f := range []float64{s.StartupDelay, s.StallSec, s.PlayedSec, s.WeightedBitrateSec, s.PlayedMediaSec, s.TotalBytes, s.WastedBytes} {
			fmt.Fprintf(h, " %x", math.Float64bits(f))
		}
		for _, f := range s.TimeOnTrack {
			fmt.Fprintf(h, " %x", math.Float64bits(f))
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// cohortGolden pins the per-member arithmetic: the digest of each
// case's Summaries (full sessions first, then background members). The
// "cell/" rows (drawnEdgeCases; the prefixes are table keys from when
// simnet had a scan and a cell engine to select) were recorded at the
// commit before the per-object Background flow was deleted, where
// Background, one-member cohorts and one N-member cohort all produced
// them — so they tie the cohort to what that implementation computed. The
// "scan/" and "mixed/" rows that differ from that recording — 30 of 35 —
// were re-recorded at EngineVersion "11", when their networks moved onto
// the anchored loop the "cell/" rows always ran. After a deliberate
// behaviour change (an EngineVersion bump) regenerate the table with
//
//	go test ./internal/player -run TestCohortGolden | grep -oE '"[a-z]+/.*",'
var cohortGolden = map[string]string{
	"scan/tight/seed0":  "d84fb816048c85fdf2ce9f30c6f6f67a95f94c6986e56ab42afbc20050a8977c",
	"scan/tight/seed1":  "e0b00d9a86cce638966e3da3b7cbdf128507b138ee97d26cfac66be672995984",
	"scan/tight/seed2":  "553586e98f83111634ba746530940c71afa9a8212d56714aea5012bb90a729cd",
	"scan/tight/seed3":  "3464259addfb91c6f554dedd22eda0ba7e85cb1ea8369adcb9a90f4cbd96dd20",
	"scan/tight/seed4":  "f97c3817d947af2374a3474a6e095d800cc8680e420712848f721f224969826d",
	"scan/tight/seed5":  "214075e18fd456f74ebc3c66177bce0392fdc18f15712e75d849da42d497bdac",
	"scan/tight/seed6":  "f39c58af78a64afcea04c845e9f3c3f2959c7e891ef2904459695ca5b78d95e8",
	"scan/tight/seed7":  "c76df0736f5c1c8a59c971286a1bf6e2cf941cad28a7e85abc322ddafa5ca65e",
	"scan/tight/seed8":  "1d5dfaeb808f4ce7a963dafe4494e87faad924e0be4051a17ba16a52708dc14a",
	"scan/medium/seed0": "7542ec4c10d9309c3a333cb52215fedeccedaa3e6aa4f7f10b0e05f1ee71a292",
	"scan/medium/seed1": "0a76d377c66b7af4dfaf720f832ff9235641260e8d788127ce3088dab6264592",
	"scan/medium/seed2": "fe58c33fa0dde2de53ab3c11b286303a02d56b83a33468dbbe4fc4386d49ddf1",
	"scan/medium/seed3": "abc118c817f1b77167407930c02deb42aa48e1c8c3ab5191d4b1e853ab84426b",
	"scan/medium/seed4": "d766a098d0ba5c9e9523c234f1972b97d28fcbdfed46cbc8e4ccc63fa2e511e9",
	"scan/medium/seed5": "7f595eee3385c1863c8e072285a51c39a75c4ac9bde89ee5aff6e52ad72b3958",
	"scan/medium/seed6": "d7fdf9592507730284c1b63056366a95fd156cedad72dc5dc802ffd5af614cf8",
	"scan/medium/seed7": "cd55ef337b83ebb55c3eedb09ad3fc42f8a6a43d8fc093e1579ae36ee2df53ef",
	"scan/medium/seed8": "6faeddcda69e55e9bc7c77b1fdef40ebe12c2a01caffadfe3ec8ec753b2eecf3",
	"scan/loose/seed0":  "6c533d525af2fdd74e7960150832563ff5004bccbbec1ba32d3abb52846b9690",
	"scan/loose/seed1":  "f954c92d01500ffc593374252d6ce0178aa9d4b4c154d55364a48ba8b4573c44",
	"scan/loose/seed2":  "c5ddd182a7f522dd30b5951f8e1c5de1aec86e1d4f5928927b6ebda1eb1bb976",
	"scan/loose/seed3":  "c7545f9bf33098136d97c461c85f0f8674bb69fc7e55a89de4db03023de29ae4",
	"scan/loose/seed4":  "f90365ba7fabf13c57dcd3112b1ac70671375d8a4d8749a4c7031839e130fdb0",
	"scan/loose/seed5":  "d769d854f4327a78f6e036a53cf8dc97c3bdddd454fd18f177a933f14bf57238",
	"scan/loose/seed6":  "770635db5199c5c561f8ff883fe934cca8be98685e8045825f641033359c9323",
	"scan/loose/seed7":  "7c769f9bf801c5e3b837c22244ad72008aa133c00417357cbd2e0cf2016dd2f0",
	"scan/loose/seed8":  "b1dd0eb12e47b20b22383b38698dd0c741f62d93d56acf3fd0c9acd5153de925",
	"cell/seed20":       "cc6203b32eb7498be23c3a8796174380bcfdd397425c443a19216afa1d2f304d",
	"cell/seed21":       "4de3a68fde665ffafd881cc7b2db043a79e12d0c102e10bc84e2ad4ad7d88819",
	"cell/seed22":       "6a7e48086bf05c609315c58a72b1d62fccc2abeb9fb15ac7054f5606d152b11c",
	"cell/seed23":       "2181894a6f5ca1047a5ae14a45d0c1d18c259a027ae468a366cf2a783bc7a116",
	"cell/seed24":       "7cdf3140575b58ee6615741728fbd9f44c1fdb6647728b011b932b14b58fe449",
	"cell/seed25":       "75e8cea29e158100173d293942de9297bbdbcc9b773a71190f9adcba6438390f",
	"cell/seed26":       "ee3cf48736fae43c33f105f1ce187565a7eccee986d695073e6e46b2e973645f",
	"cell/seed27":       "0cef92c41f097251972ef3f3aa6f0ed92b87b19c9dc0ee1533cdcfeb0a62fd5e",
	"cell/seed28":       "e7de621cc37831fafc589ecd3b5263803e9b16ff8dc8b41539fd360fa842ecb3",
	"cell/seed29":       "69ce847aa65803262744796a7adc5f87227734a6d36d3c2ea5af303f85b69ae1",
	"cell/seed30":       "c8372ffe3141aab36feea1ecf1327d892b6c282db643b21850ba2a718756802c",
	"cell/seed31":       "2f4dbbf6c16b4c602cb73a15648bd56e9bdf10d0734533bdc2cb699d1c062b8c",
	"mixed/seed40":      "7d23fe5232bb3f1bcf8b7d1c604592e1812edbeff67d24b5f7cf267530f72e08",
	"mixed/seed41":      "3977ad0ea492cf76f1b506175d9562f3c16848b70dbde723903ac758a2d374e1",
	"mixed/seed42":      "d9308ca1ee0956bf4d8ac013ca587790c04122a684de5623bbc54f9cb6176812",
	"mixed/seed43":      "5d498bfeb331928d41c03df09471b5fd3fed12b038afd303e5a6b873204128ee",
	"mixed/seed44":      "fccdbf8a3a12715fad26ae4e80d84e25928f13c509e9abe66f9c9bcc6e854b51",
	"mixed/seed45":      "b28cea213e85d68f3b3e579a430c1f925654040198628d041bf7745739f7b677",
	"mixed/seed46":      "99cc5a9545a9f8df666b93f2bd5a178bd601260e7dc81b7e5d025ebb9223b75e",
	"mixed/seed47":      "76e8d5e9abf368390b169cbb5d233a5a4124357b41214c6263d464c00d02afde",
}

// TestCohortGolden checks every case of the differential suite, as one
// cohort and as uneven cohorts, against its recorded digest.
func TestCohortGolden(t *testing.T) {
	for _, set := range []struct {
		prefix string
		cases  []cohortCase
	}{{"scan/", fixedEdgeCases()}, {"cell/", drawnEdgeCases()}, {"mixed/", mixedCases()}} {
		for _, cc := range set.cases {
			name := set.prefix + cc.name
			t.Run(name, func(t *testing.T) {
				for _, part := range []partition{oneCohort, uneven} {
					sessions, members := cc.run(t, part)
					if got := summariesDigest(append(sessions, members...)); got != cohortGolden[name] {
						t.Errorf("digest moved (partition %d):\n\t%q: %q,", part, name, got)
					}
				}
			})
		}
	}
}

// TestCohortObserverStreaming pins the observer contract: called
// exactly once per member, with a scratch Summary whose TimeOnTrack is as
// wide as the member's own ladder (a view into a slot row as wide as the
// widest), and the same digests on a second run.
func TestCohortObserverStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draws := drawBackgrounds(rng, 8, false)
	p := steppedEdge(rng, 8, 200)
	run := func() map[int]Summary {
		net := simnet.New(simnet.DefaultConfig(), p)
		g := NewGroup()
		c := NewCohort(net)
		for _, d := range draws {
			i := c.Add(d.cfg)
			c.SetStartAt(i, d.startAt)
			c.SetAccessProfile(i, d.trace)
		}
		seen := make(map[int]Summary)
		c.SetObserver(func(i int, s *Summary) {
			if _, dup := seen[i]; dup {
				t.Errorf("observer called twice for member %d", i)
			}
			if got, want := len(s.TimeOnTrack), len(draws[i].cfg.Declared); got != want {
				t.Errorf("member %d: TimeOnTrack has %d rungs, its ladder %d", i, got, want)
			}
			seen[i] = cloneSummary(*s)
		})
		if err := g.AddCohort(c); err != nil {
			t.Fatal(err)
		}
		g.Run()
		if len(seen) != c.Len() {
			t.Fatalf("observer saw %d members, want %d", len(seen), c.Len())
		}
		return seen
	}
	if first, second := run(), run(); !reflect.DeepEqual(first, second) {
		t.Errorf("observed digests differ between two runs:\n%+v\n%+v", first, second)
	}
}

// TestCohortRejectsLateAdd pins the freeze contract: a cohort cannot
// grow after joining a group.
func TestCohortRejectsLateAdd(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(), netem.Constant("c", 1e6, 60))
	g := NewGroup()
	c := NewCohort(net)
	c.Add(BackgroundConfig{Declared: []float64{1e5}, SegmentDuration: 4, MediaDuration: 20})
	if err := g.AddCohort(c); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add after AddCohort did not panic")
		}
	}()
	c.Add(BackgroundConfig{Declared: []float64{1e5}, SegmentDuration: 4, MediaDuration: 20})
}

// ringsTouched counts the rings some member has written a segment into
// (once the run is over every ring is back on the free stack).
func ringsTouched(c *Cohort) int {
	n := 0
	for _, r := range c.freeRings {
		for _, s := range r {
			if s.dur != 0 || s.counted {
				n++
				break
			}
		}
	}
	return n
}

// TestCohortRingPool pins what rings are sized by: the members buffering
// at once, not the members. Six viewers whose sessions never overlap pass
// one ring along; twenty who all watch together take twenty, in three
// chunks (8, 8, 4: a chunk never holds more rings than members lack one).
// (That a Summary cannot tell which ring served it is the differential
// suite's job: a singleton cohort always plays out of its one ring, its
// batched twin out of whichever was free.)
func TestCohortRingPool(t *testing.T) {
	cfg := BackgroundConfig{Declared: []float64{2e5, 6e5}, SegmentDuration: 4, MediaDuration: 60, SessionDuration: 20}
	run := func(n int, gap float64) *Cohort {
		net := simnet.New(simnet.DefaultConfig(), netem.Constant("edge", 40e6, 400))
		c := NewCohort(net)
		c.Grow(n)
		next := 0
		add := func() {
			c.SetStartAt(c.Add(cfg), gap*float64(next))
			next++
		}
		// AllocsPerRun calls add once to warm up, then n-1 times.
		if allocs := testing.AllocsPerRun(n-1, add); allocs != 0 || c.Len() != n {
			t.Fatalf("%d Adds after Grow(%d) allocate %.1f times each", c.Len(), n, allocs)
		}
		for i := 0; i < n; i++ {
			c.SetAccessProfile(i, netem.Constant("access", 5e6, 400))
		}
		c.SetObserver(func(i int, s *Summary) {
			if s.PlayedSec < 10 {
				t.Fatalf("member %d of %d played %.1f s: the scenario does not buffer", i, n, s.PlayedSec)
			}
			if r := c.slots[c.draw[i].state].fifo.ring; r != nil {
				t.Fatalf("member %d of %d finished holding a ring", i, n)
			}
		})
		g := NewGroup()
		if err := g.AddCohort(c); err != nil {
			t.Fatal(err)
		}
		g.Run()
		if len(c.freeRings) != c.nRings {
			t.Fatalf("%d of %d rings free after the run", len(c.freeRings), c.nRings)
		}
		return c
	}
	if c := run(6, 30); ringsTouched(c) != 1 || c.nRings != 6 {
		t.Errorf("6 disjoint members touched %d rings of %d, want 1 of 6", ringsTouched(c), c.nRings)
	}
	if c := run(20, 0); ringsTouched(c) != 20 || c.nRings != 20 {
		t.Errorf("20 concurrent members touched %d rings of %d, want 20 of 20", ringsTouched(c), c.nRings)
	}
}

// netSpy is a resolver that serves every request at the edge and records
// the connection and access link each member's requests go out on.
type netSpy struct {
	c     *Cohort
	conns [][]*simnet.Conn // per member, one entry per request
	links map[*simnet.AccessLink]bool
}

// memberSpy is member m's view of the spy (Resolve does not name the
// member).
type memberSpy struct {
	s *netSpy
	m int
}

func (ms memberSpy) Resolve(float64, cdn.Object, float64) cdn.Route {
	s, cn := ms.s, ms.s.c.slots[ms.s.c.draw[ms.m].state].conn
	s.conns[ms.m] = append(s.conns[ms.m], cn)
	s.links[cn.Access()] = true
	return cdn.Route{}
}

// TestCohortLinkPool pins what the network's access links and
// connections are sized by: the members live at once, not the members.
// Six viewers whose sessions never overlap each hold one link and one
// connection for their whole session, and all six get the same link and
// the same connection; twenty who all watch together hold twenty of each.
// (That a Summary cannot tell which objects served it is
// TestCohortGolden's job: its member draws overlap in every pattern.)
func TestCohortLinkPool(t *testing.T) {
	cfg := BackgroundConfig{Declared: []float64{2e5, 6e5}, SegmentDuration: 4, MediaDuration: 60, SessionDuration: 20}
	run := func(n int, gap float64) (conns map[*simnet.Conn]bool, links int) {
		net := simnet.New(simnet.DefaultConfig(), netem.Constant("edge", 40e6, 400))
		c := NewCohort(net)
		spy := &netSpy{c: c, conns: make([][]*simnet.Conn, n), links: map[*simnet.AccessLink]bool{}}
		for i := 0; i < n; i++ {
			j := c.Add(cfg)
			c.SetStartAt(j, gap*float64(i))
			c.SetAccessProfile(j, netem.Constant("access", 5e6, 400))
		}
		c.SetResolvers(func(m int, _ cdn.Resolver) cdn.Resolver { return memberSpy{spy, m} })
		g := NewGroup()
		if err := g.AddCohort(c); err != nil {
			t.Fatal(err)
		}
		g.Run()
		conns = map[*simnet.Conn]bool{}
		for m, cs := range spy.conns {
			if len(cs) < 2 {
				t.Fatalf("member %d of %d made %d requests", m, n, len(cs))
			}
			for _, cn := range cs {
				if cn != cs[0] {
					t.Fatalf("member %d of %d changed connection mid-session", m, n)
				}
			}
			conns[cs[0]] = true
		}
		for s := range c.slots {
			if c.slots[s].conn != nil {
				t.Fatalf("slot %d of %d still holds a connection after the run", s, len(c.slots))
			}
		}
		return conns, len(spy.links)
	}
	if conns, links := run(6, 30); len(conns) != 1 || links != 1 {
		t.Errorf("6 disjoint members used %d connections and %d links, want one of each", len(conns), links)
	}
	if conns, links := run(20, 0); len(conns) != 20 || links != 20 {
		t.Errorf("20 concurrent members used %d connections and %d links, want 20 of each", len(conns), links)
	}
}

// TestCohortRingOverflowPanics: the per-ring bound survives pooling — a
// member whose FIFO already holds qCap stretches cannot queue another.
func TestCohortRingOverflowPanics(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(), netem.Constant("edge", 40e6, 60))
	c := NewCohort(net)
	c.Add(BackgroundConfig{Declared: []float64{2e5}, SegmentDuration: 4, MediaDuration: 60, SessionDuration: 30})
	c.SetResolvers(func(m int, _ cdn.Resolver) cdn.Resolver {
		c.slots[c.draw[m].state].fifo.n = int32(c.qCap)
		return nil
	})
	g := NewGroup()
	if err := g.AddCohort(c); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if got, want := recover(), "player: cohort segment ring overflow"; got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	}()
	g.Run()
}

// TestCohortStaleSlotPanics: a member that holds no live slot cannot be
// serviced or completed — the call panics naming the member instead of
// touching whichever member holds its old slot now — and neither can a
// live member complete a transfer its slot does not have in flight.
func TestCohortStaleSlotPanics(t *testing.T) {
	cfg := BackgroundConfig{Declared: []float64{2e5}, SegmentDuration: 4, MediaDuration: 20, SessionDuration: 10}
	net := simnet.New(simnet.DefaultConfig(), netem.Constant("edge", 40e6, 60))
	c := NewCohort(net)
	c.Add(cfg)
	c.SetStartAt(c.Add(cfg), 20) // member 1 takes member 0's slot
	g := NewGroup()
	if err := g.AddCohort(c); err != nil {
		t.Fatal(err)
	}
	wantPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			if got := fmt.Sprint(recover()); !strings.Contains(got, want) {
				t.Errorf("%s: panic %q, want it to contain %q", what, got, want)
			}
		}()
		f()
	}
	wantPanic("completion before arrival", "member 0 (state -1)", func() { c.onComplete(0, &simnet.Transfer{}) })
	g.Run()
	if c.PeakLive() != 1 {
		t.Fatalf("peak live %d, want the one slot both members share", c.PeakLive())
	}
	wantPanic("service after finish", "member 0 serviced after it finished", func() { c.service(0, net.Now()) })
	wantPanic("completion after finish", "member 1 (state -2)", func() { c.onComplete(1, &simnet.Transfer{}) })
	c.draw[1].state = 0 // pretend member 1 is still live, with nothing in flight
	wantPanic("completion not in flight", "member 1 (state 0) completed a transfer its slot does not have in flight", func() { c.onComplete(1, &simnet.Transfer{}) })
}

// TestCohortSlotReuseInvisible: viewers whose sessions never overlap
// pass one slot along (PeakLive 1, and every one of them finishes in
// slot 0), and a viewer that inherits a used slot — its row, its
// resolver, the Summary accumulators of its predecessors — produces the
// Summary it produces in a fresh one-member cohort of its own.
func TestCohortSlotReuseInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draws := drawBackgrounds(rng, 6, false)
	for i := range draws {
		draws[i].startAt = 130 * float64(i) // sessions last at most 105 s
	}
	edge := netem.Constant("edge", 3e6, 900)
	run := func(part partition) []Summary {
		net := simnet.New(simnet.DefaultConfig(), edge)
		g := NewGroup()
		var cohorts []*Cohort
		var observed [][]Summary
		for _, d := range draws {
			if len(cohorts) == 0 || part == singletons {
				cohorts = append(cohorts, NewCohort(net))
			}
			c := cohorts[len(cohorts)-1]
			c.SetStartAt(c.Add(d.cfg), d.startAt)
		}
		for _, c := range cohorts {
			sums := make([]Summary, c.Len())
			c.SetObserver(func(i int, s *Summary) {
				if st := c.draw[i].state; part == oneCohort && st != 0 {
					t.Errorf("member %d finished in slot %d, want the shared slot 0", i, st)
				}
				sums[i] = cloneSummary(*s)
			})
			observed = append(observed, sums)
			if err := g.AddCohort(c); err != nil {
				t.Fatal(err)
			}
		}
		g.Run()
		if part == oneCohort && cohorts[0].PeakLive() != 1 {
			t.Errorf("%d disjoint members peaked at %d live, want 1", len(draws), cohorts[0].PeakLive())
		}
		var out []Summary
		for _, sums := range observed {
			out = append(out, sums...)
		}
		return out
	}
	compareSummaries(t, run(singletons), run(oneCohort))
}

// TestCohortRefsStayPut: a transfer's Meta points into its slot, so slots
// must never move. Members arrive a second apart while the earlier ones
// download, so the slot table grows past its first chunk under transfers
// in flight; every completion must still reach the member that started
// it (onComplete panics otherwise) and every slot must keep the address
// its first holder's requests carried.
func TestCohortRefsStayPut(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	draws := drawBackgrounds(rng, 40, false)
	for i := range draws {
		draws[i].startAt = float64(i)
		draws[i].cfg.SessionDuration = 60
	}
	net := simnet.New(simnet.DefaultConfig(), netem.Constant("edge", 4e6, 200))
	c := NewCohort(net)
	for _, d := range draws {
		i := c.Add(d.cfg)
		c.SetStartAt(i, d.startAt)
		c.SetAccessProfile(i, d.trace)
	}
	refs := map[int32]*cohortRef{}
	grewInFlight := false
	c.SetResolvers(func(m int, _ cdn.Resolver) cdn.Resolver {
		s := c.draw[m].state
		if ref, ok := refs[s]; ok && ref != &c.slots[s].ref {
			t.Errorf("slot %d moved: its ref was at %p, is at %p", s, ref, &c.slots[s].ref)
		}
		refs[s] = &c.slots[s].ref
		if int(s) == len(c.slots)/2 { // the first slot of a doubled chunk
			for _, sl := range c.slots[:s] {
				grewInFlight = grewInFlight || sl.inflight != nil
			}
		}
		return nil
	})
	sums := observeAll(c)
	g := NewGroup()
	if err := g.AddCohort(c); err != nil {
		t.Fatal(err)
	}
	g.Run()
	if len(c.slots) <= slotQuantum || !grewInFlight {
		t.Fatalf("%d slots, grown under a transfer in flight: %v — the scenario does not exercise growth", len(c.slots), grewInFlight)
	}
	for m, s := range sums {
		if s.TotalBytes <= 0 {
			t.Errorf("member %d downloaded nothing", m)
		}
	}
}

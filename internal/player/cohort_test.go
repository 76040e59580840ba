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
	"testing"

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
	return &netem.Profile{Name: "steppedEdge", SampleDur: 1, Samples: s}
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

// scanCases is the core sweep: seeds × contention levels (edge budgets
// from starved to ample) on the default engine.
func scanCases() []cohortCase {
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

// cellCases repeats the sweep with the simnet cell engine underneath —
// the exact configuration the fleet runs.
func cellCases() []cohortCase {
	scfg := simnet.DefaultConfig()
	scfg.Engine = simnet.EngineCell
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
		c.SetAccessLink(i, net.NewAccessLink(d.trace))
	}
	for _, c := range cohorts {
		if err := g.AddCohort(c); err != nil {
			t.Fatal(err)
		}
	}
	g.Run()
	for _, s := range ss {
		sessions = append(sessions, cloneSummary(*s.Summary()))
	}
	for _, c := range cohorts {
		for i := 0; i < c.Len(); i++ {
			members = append(members, cloneSummary(c.MemberSummary(i)))
		}
	}
	return sessions, members
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
func TestCohortMatchesBackgrounds(t *testing.T) { matchSingletons(t, scanCases()) }

// TestCohortMatchesBackgroundsCellEngine repeats the differential sweep
// on the simnet cell engine, so the cohort and the anchored-flow engine
// are proven to compose bit-exactly.
func TestCohortMatchesBackgroundsCellEngine(t *testing.T) { matchSingletons(t, cellCases()) }

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
// values were recorded at the commit before the per-object Background
// flow was deleted, where Background, one-member cohorts and one
// N-member cohort all produced them — so they tie the cohort to what
// that implementation computed, on both engines. After a deliberate
// behaviour change (an EngineVersion bump) regenerate the table with
//
//	go test ./internal/player -run TestCohortGolden | grep -oE '"[a-z]+/.*",'
var cohortGolden = map[string]string{
	"scan/tight/seed0":  "5f939d912f7ed48bee2835196c2aa670c9a187b5312ff542bc9f5032909fdfb5",
	"scan/tight/seed1":  "e0b00d9a86cce638966e3da3b7cbdf128507b138ee97d26cfac66be672995984",
	"scan/tight/seed2":  "d1501766acc193f430e003188fa42efa0411f43ddf59114ea0af2cd8f6913600",
	"scan/tight/seed3":  "8faec26ce54af322dfd689de873cf09aa8a80266a11886ef456e0303b39caa94",
	"scan/tight/seed4":  "e3e248c2e5f01a76f033ea852f1b5bb8e1d865fe84a45a56c3e46e62a57b0b2c",
	"scan/tight/seed5":  "f32fb23b7f03376f4e9412a6848eda8de2d59e72ade7139188c19201de0ed1c1",
	"scan/tight/seed6":  "90abcf9df0707b37c8c86761f807eaa45353cf5fc4c3bc96f191991a66a45f2e",
	"scan/tight/seed7":  "1f2b68d0794fb1d02be150029f17a02803aac4409bc1db53923265490fbcd879",
	"scan/tight/seed8":  "295f43d7ab3bece2c313bf79a81d42f5b2da8c165fe0726bcaa6229d77e6d9ae",
	"scan/medium/seed0": "d3b4644ea2d828a7014e87ff863e0c86cccdb92f4d7002d6b45b852bd8c2002c",
	"scan/medium/seed1": "316ed743da59310473593fcb696b69cab87ca0dfb96d393d1aacb8b34842c555",
	"scan/medium/seed2": "034e1d94e26822447337f9ce3f7d5aedbc4f13467b0f247f70ca7d9a05810fbe",
	"scan/medium/seed3": "abc118c817f1b77167407930c02deb42aa48e1c8c3ab5191d4b1e853ab84426b",
	"scan/medium/seed4": "3d7f3a8007b8ffdb02cc15cbace75732e2df29c837a81e9014a2969fcb6141ea",
	"scan/medium/seed5": "ccb31fc4f42a8baf77eafabc1e60a1e0f9e57f90e1ba99cca123c5a987ae4e63",
	"scan/medium/seed6": "f0919c5573814ffdc4d439d64cbbfa5da5a49b4f9858321fb23df526b8451dcf",
	"scan/medium/seed7": "65889a4c0797cfd5ef8468ce93c0efe6dc74e3dd920218eeaece33d39ca9f4b7",
	"scan/medium/seed8": "6faeddcda69e55e9bc7c77b1fdef40ebe12c2a01caffadfe3ec8ec753b2eecf3",
	"scan/loose/seed0":  "f5d131f7d6572c6c2c8a86688ea16facde6b254c350bbb91e50b52dbb9206f84",
	"scan/loose/seed1":  "4d7b4a1bd5042bb2cabc1dc603ed23b044e29c18b9af789554a05f16930e5108",
	"scan/loose/seed2":  "7bfcf2039fcad011a70b9e67fe55983c06f2a0c824fb1b48f791bce910a86c01",
	"scan/loose/seed3":  "e1c886e4c42787b5130c6abfedbfda67fc8e1339914a4f5e09586099af28c1a2",
	"scan/loose/seed4":  "2b3b1e7364865bafe9906abf9bb40f06c3a3beea66156b1f3c811d0be7fbbd33",
	"scan/loose/seed5":  "2dd482b9b923739ef06d24c5390100ffe510e96156667a8513e48243d66f1921",
	"scan/loose/seed6":  "7218e4f29e0380b59a6ac31dcb49384e7ed54df8683af7344f9c72076a0bbf18",
	"scan/loose/seed7":  "39270620b54d49f3d9cc40da602c4cbea78676b57347800a0e25a76d3497f181",
	"scan/loose/seed8":  "ca4ef540e4a4e02f7e2bb4826a55eaea9c94299a4e1e44ca9ff478786f7a69a7",
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
	"mixed/seed40":      "a5d3ad902f9ea981d8e12826b7ca77c3af4050770c3d4276acf057378252f510",
	"mixed/seed41":      "e27854772b784b49d185e68ff9eed95a61f1606cd756e1e9cd122eae085899ab",
	"mixed/seed42":      "d9308ca1ee0956bf4d8ac013ca587790c04122a684de5623bbc54f9cb6176812",
	"mixed/seed43":      "14514355c15578232715e4f6207b29f7fccdb11c3c5f2ddd4a01b0da6d142f9f",
	"mixed/seed44":      "fccdbf8a3a12715fad26ae4e80d84e25928f13c509e9abe66f9c9bcc6e854b51",
	"mixed/seed45":      "a9a76ebeedaf5d4d6ac6dca9a696419091fdb860254f9b17aa0cbf6066b64f3e",
	"mixed/seed46":      "b4491054aab3bb893c2cb1ef6a4299021944d4f5d0ae0963840e4cef379f57d2",
	"mixed/seed47":      "d8b6091a6760e6bf06b67e98b47487be392bdaf19ebb496399ad0b516e6081cb",
}

// TestCohortGolden checks every case of the differential suite, as one
// cohort and as uneven cohorts, against its recorded digest.
func TestCohortGolden(t *testing.T) {
	for _, set := range []struct {
		prefix string
		cases  []cohortCase
	}{{"scan/", scanCases()}, {"cell/", cellCases()}, {"mixed/", mixedCases()}} {
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
// exactly once per member, with a scratch Summary equal to the member's
// final digest.
func TestCohortObserverStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draws := drawBackgrounds(rng, 8, false)
	p := steppedEdge(rng, 8, 200)
	net := simnet.New(simnet.DefaultConfig(), p)
	g := NewGroup()
	c := NewCohort(net)
	for _, d := range draws {
		i := c.Add(d.cfg)
		c.SetStartAt(i, d.startAt)
		c.SetAccessLink(i, net.NewAccessLink(d.trace))
	}
	seen := make(map[int]Summary)
	c.SetObserver(func(i int, s *Summary) {
		if _, dup := seen[i]; dup {
			t.Errorf("observer called twice for member %d", i)
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
	for i := 0; i < c.Len(); i++ {
		if want := cloneSummary(c.MemberSummary(i)); !reflect.DeepEqual(seen[i], want) {
			t.Errorf("member %d: observed %+v, final %+v", i, seen[i], want)
		}
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

// ringsTouched counts the rings some member has written a segment into.
func ringsTouched(c *Cohort) int {
	n := 0
	for r := 0; r < len(c.rings)/c.qCap; r++ {
		for _, s := range c.rings[r*c.qCap : (r+1)*c.qCap] {
			if s.dur != 0 || s.counted {
				n++
				break
			}
		}
	}
	return n
}

// TestCohortRingPool pins what the ring slab is sized by: the members
// buffering at once, not the members. Six viewers whose sessions never
// overlap pass one ring along; twenty who all watch together take twenty,
// growing the slab twice. (That a Summary cannot tell which ring served
// it is the differential suite's job: a singleton cohort always plays out
// of ring 0, its batched twin out of whichever was free.)
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
			c.SetAccessLink(i, net.NewAccessLink(netem.Constant("access", 5e6, 400)))
		}
		g := NewGroup()
		if err := g.AddCohort(c); err != nil {
			t.Fatal(err)
		}
		g.Run()
		for i := 0; i < n; i++ {
			if s := c.MemberSummary(i); s.PlayedSec < 10 {
				t.Fatalf("member %d of %d played %.1f s: the scenario does not buffer", i, n, s.PlayedSec)
			}
			if c.fifo[i].ring != -1 {
				t.Fatalf("member %d of %d finished holding ring %d", i, n, c.fifo[i].ring)
			}
		}
		return c
	}
	if c := run(6, 30); ringsTouched(c) != 1 || len(c.rings) != ringQuantum*c.qCap {
		t.Errorf("6 disjoint members touched %d rings of %d, want 1 of %d", ringsTouched(c), len(c.rings)/c.qCap, ringQuantum)
	}
	if c := run(20, 0); ringsTouched(c) != 20 || len(c.rings) != 4*ringQuantum*c.qCap {
		t.Errorf("20 concurrent members touched %d rings of %d, want 20 of %d", ringsTouched(c), len(c.rings)/c.qCap, 4*ringQuantum)
	}
}

// TestCohortRingOverflowPanics: the per-ring bound survives pooling — a
// member whose FIFO already holds qCap stretches cannot queue another.
func TestCohortRingOverflowPanics(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(), netem.Constant("edge", 40e6, 60))
	c := NewCohort(net)
	c.Add(BackgroundConfig{Declared: []float64{2e5}, SegmentDuration: 4, MediaDuration: 60, SessionDuration: 30})
	g := NewGroup()
	if err := g.AddCohort(c); err != nil {
		t.Fatal(err)
	}
	c.fifo[0].n = int32(c.qCap)
	defer func() {
		if got, want := recover(), "player: cohort segment ring overflow"; got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	}()
	g.Run()
}

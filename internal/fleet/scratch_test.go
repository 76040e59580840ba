package fleet

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cdn"
	"repro/internal/expcache"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/player"
	schedpkg "repro/internal/sched"
	"repro/internal/services"
)

// flashCfg is bench/'s fleet_flashcrowd shape at test size: four fifths of
// the population on a cold cell 0, the cache tier with its metro level, a
// failing node, and enough balanced cells (100 of 6: seven shards) behind
// the hot one that a worker's scratch serves several shards.
var flashCfg = Config{
	Seed: 3, Sessions: 3000, Hotspot: 0.8, FidelityFull: 0.02, ClientsPerCell: 6,
	Cache: &cdn.CacheConfig{EdgeBytes: 64 << 20, MetroBytes: 2 << 30, TTLSec: 6 * 3600, ColdCells: "0-3", FailCell: 5, FailAtSec: 60},
}

// TestFlashCrowdScratchDeterminism: the per-worker scratch — the recycled
// edge/metro tier above all — is the first fleet state that outlives a
// shard, so which shards follow each other on a worker must not reach the
// bytes: one worker recycling a single scratch through every shard, eight
// workers, and the two forced steal schedules all agree.
func TestFlashCrowdScratchDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	withSched(t, 8)
	serial := fleetBytes(t, flashCfg, RunOptions{Workers: 1})
	for name, opts := range map[string]RunOptions{
		"workers=8":          {Workers: 8},
		"workers=8 hog":      {Workers: 8, Steal: schedpkg.StealOptions{Hog: true}},
		"workers=3 no steal": {Workers: 3, Steal: schedpkg.StealOptions{DisableSteal: true}},
	} {
		if got := fleetBytes(t, flashCfg, opts); !bytes.Equal(serial, got) {
			t.Errorf("%s: report bytes differ from workers=1 (%d B vs %d B)", name, len(got), len(serial))
		}
	}
}

// TestHotCellAllocBudget holds one crowded cold cached cell — the flash
// crowd's cell 0 scaled down, members and edge rate alike: 2.5 Mbit/s per
// 5 000 members — to two budgets, at 5 000 and at 50 000 members.
//
// The whole cell is held to 1 024 allocated bytes per member, so nothing
// in it — network, caches, fleet, Group or cohort — is sized by the
// population again unnoticed. Measured 496 B a member at 5 000 and 366 B
// at 50 000. With the control and Summary slabs sized by the population
// it was about 810 B at 5 000, and with an access link, a connection and
// an abandoned transfer per member as well about 1 150 B.
//
// The cohort tier is held to bytes per drawn member plus bytes per
// peak-live member (Cohort.PeakLive). A full-rate heap profile splits
// what the cell allocates by stack (cohortAllocs): the per-live term is
// what the cohort allocates as a member takes a slot or a ring, the
// per-drawn term the rest of what it allocates, plus the edge-cache
// clients made outside a slot (the full sessions', a fiftieth of the
// members). Measured: 34 B per drawn member at 5 000 and 32 B at 50 000
// (the draw slab, 32 B a member, and the cell's interned templates), 481
// and 396 B per peak-live member (817 and 7 848 live; slot and ring
// chunks grow by doubling, so up to half of the last one is spare). With
// the control and Summary slabs, the configs and a client per drawn
// member it was 341 and 331 B per drawn member. The budgets leave 1.9x
// and 1.33x headroom.
func TestHotCellAllocBudget(t *testing.T) {
	const wholeBudget, drawnBudget, liveBudget = 1024, 64, 640
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	peak := 0
	defer func(hook func(*player.Cohort)) { cohortDone = hook }(cohortDone)
	cohortDone = func(c *player.Cohort) { peak = c.PeakLive() }
	for _, members := range []int{5000, 50000} {
		cfg, cold, err := Config{
			Seed: 9, Sessions: members, ClientsPerCell: members, FidelityFull: 0.02, EdgeMbps: 2.5 * float64(members) / 5000,
			Cache: &cdn.CacheConfig{EdgeBytes: 64 << 20, MetroBytes: 2 << 30, TTLSec: 6 * 3600, ColdCells: "0"},
		}.normalize()
		if err != nil {
			t.Fatal(err)
		}
		tab, err := newCellTables(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			scratch := new(shardScratch)
			metro := scratch.freshMetro(*cfg.Cache)
			tab.catalog.WarmMetro(metro)
			if _, _, err := runCell(cfg, 0, newRunSpec(cfg), newCellSpec(cfg, 0, cold[0]), tab, metro, nil, scratch); err != nil {
				t.Fatal(err)
			}
		}
		run() // the origins are built once per process
		var ms0, ms1 runtime.MemStats
		before := cohortAllocs()
		runtime.ReadMemStats(&ms0)
		run()
		runtime.ReadMemStats(&ms1)
		after := cohortAllocs()
		whole := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(members)
		perDrawn := float64(after.drawn-before.drawn) / float64(members)
		perLive := float64(after.live-before.live) / float64(peak)
		t.Logf("%d members, %d live at peak: the cell allocates %.0f B per member; its cohort tier %.0f B per drawn member + %.0f B per peak-live member", members, peak, whole, perDrawn, perLive)
		if whole > wholeBudget {
			t.Errorf("%d members: the cell allocates %.0f B per member, budget %d: something is sized by the population again", members, whole, wholeBudget)
		}
		if perDrawn > drawnBudget {
			t.Errorf("%d members: the cohort tier allocates %.0f B per drawn member, budget %d: something is sized by the population again", members, perDrawn, drawnBudget)
		}
		if perLive > liveBudget {
			t.Errorf("%d members: the cohort tier allocates %.0f B per peak-live member, budget %d", members, perLive, liveBudget)
		}
	}
}

// tierBytes is what the cohort tier allocated, split by whom it is for.
type tierBytes struct{ drawn, live uint64 }

// cohortAllocs sums the heap profile over every allocation so far made
// for the cohort tier: the innermost frame of this module is an
// edge-cache client constructor, or a player function called from a
// Cohort method (not a simnet or cdn one: the network and the caches are
// not the tier). Under Cohort.takeSlot or Cohort.takeRing it is per-live,
// else per-drawn. Only exact while runtime.MemProfileRate is 1.
func cohortAllocs() tierBytes {
	runtime.GC() // publishes the profile of everything allocated before it
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	for {
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	var b tierBytes
	for _, r := range recs[:n] {
		inner, cohort, live := "", false, false
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			fn := f.Function
			if inner == "" && strings.HasPrefix(fn, "repro/") {
				inner = fn
			}
			cohort = cohort || strings.HasPrefix(fn, "repro/internal/player.(*Cohort).")
			live = live || strings.HasPrefix(fn, "repro/internal/player.(*Cohort).take")
		}
		client := inner == "repro/internal/cdn.(*Cell).NewClient" || inner == "repro/internal/cdn.(*Cell).ReuseClient"
		switch {
		case !client && !(cohort && strings.HasPrefix(inner, "repro/internal/player.")):
		case live:
			b.live += uint64(r.AllocBytes)
		default:
			b.drawn += uint64(r.AllocBytes)
		}
	}
	return b
}

// TestConstantOverMatchesConstant: a profile cut from a lent slab is the
// profile netem.Constant builds, sample for sample, whatever was cut
// from the slab before; and cutting a longer one leaves it intact.
func TestConstantOverMatchesConstant(t *testing.T) {
	var slab []float64
	var cut []*netem.Profile
	durs := []float64{0, 0.2, 31, 30.5, 721.7, 12}
	for _, dur := range durs {
		cut = append(cut, constantOver(&slab, "edge", 40e6, dur))
	}
	for i, dur := range durs {
		want := netem.Constant("edge", 40e6, dur)
		if got := cut[i]; !reflect.DeepEqual(got, want) {
			t.Fatalf("dur %v: %d samples of %v, want %d of %v", dur, len(got.Samples), got.Samples[0], len(want.Samples), want.Samples[0])
		}
		if got, want := cut[i].Integral(0, dur+3), want.Integral(0, dur+3); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dur %v: integral %v, want %v", dur, got, want)
		}
	}
}

// TestKeyOverflowNamesCell: a request the cache key cannot hold — here a
// ladder of 2¹⁶+1 rungs whose top rung the first throughput sample can
// afford — stops the cell with an error that names the cell, the object
// and the field, instead of aliasing another object's cache entry.
func TestKeyOverflowNamesCell(t *testing.T) {
	cfg, err := Config{
		Seed: 11, Sessions: 8, ClientsPerCell: 4, FidelityFull: -1, Services: []string{"H1"},
		Cache: &cdn.CacheConfig{EdgeBytes: 1 << 20, ColdCells: "0-1"},
	}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	svc := services.ByName("H1")
	org, err := expcache.Origin(svc)
	if err != nil {
		t.Fatal(err)
	}
	ladder := backgroundTemplate(org)
	ladder.Declared = make([]float64, 1<<16+1)
	for i := range ladder.Declared {
		ladder.Declared[i] = 1000 + float64(i)
	}
	tab := &cellTables{
		svcs:        []*services.Service{svc},
		origins:     []*origin.Origin{org},
		bgTemplates: []player.BackgroundConfig{ladder},
		traces:      netem.CanonicalCellularSet(),
	}
	_, _, err = runCell(cfg, 1, newRunSpec(cfg), newCellSpec(cfg, 1, true), tab, nil, nil, new(shardScratch))
	if err == nil {
		t.Fatal("a 65537-rung ladder ran without error")
	}
	for _, want := range []string{
		"fleet: cell 1 (seed 11, 8 sessions): ",
		"panicked: cdn: object {Catalog:0 Kind:0 Track:65536 Index:2}: Track out of range [0, 65536)",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not contain %q:\n%v", want, err)
		}
	}
}

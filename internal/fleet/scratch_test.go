package fleet

import (
	"bytes"
	"context"
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
// crowd's cell 0 at a sixteenth of bench/'s size, members and edge rate
// alike: 5 000 on 2.5 Mbit/s — to a budget of allocated bytes per member.
// Measured 828 B a member. With an access link, a connection and an
// abandoned transfer per member instead of per live member it was 1 173 B,
// and with a segment ring per member as well 1 981 B; 1 024 has 1.24x
// headroom and fails the former by 1.15x. The run around the cell (tables,
// report) is in the figure: about 20 B a member.
func TestHotCellAllocBudget(t *testing.T) {
	const members, budget = 5000, 1024
	withSched(t, 1)
	cfg := Config{
		Seed: 9, Sessions: members, ClientsPerCell: members, FidelityFull: 0.02, EdgeMbps: 2.5,
		Cache: &cdn.CacheConfig{EdgeBytes: 64 << 20, MetroBytes: 2 << 30, TTLSec: 6 * 3600, ColdCells: "0"},
	}
	run := func() {
		rep, err := RunWithOptions(context.Background(), cfg, RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cells != 1 {
			t.Fatalf("%d cells, want the one crowded cell", rep.Cells)
		}
	}
	run() // the origins are built once per process
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perMember := (after.TotalAlloc - before.TotalAlloc) / members
	t.Logf("a %d-member cold cached cell allocates %d B per member", members, perMember)
	if perMember > budget {
		t.Errorf("a %d-member cell allocates %d B per member, budget %d: something is sized by the population again", members, perMember, budget)
	}
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

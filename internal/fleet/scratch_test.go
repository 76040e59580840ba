package fleet

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
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

// TestRecycledScratchInvisible: a scratch that has served other cells —
// a 5 000-member hot cell first, as the bench's flash crowd runs it, then
// a 24-member cell, a cell with focus members, a cache-tier cell and one
// whose services have narrower ladders than the cell before — hands each
// cell exactly the finishedCell and FocusSessions a new scratch does. The
// cells come from different configs, sharing only what a scratch assumes
// of one run: the edge and backhaul rates, the cache config and the
// number of services.
func TestRecycledScratchInvisible(t *testing.T) {
	cc := func(cold string) *cdn.CacheConfig {
		return &cdn.CacheConfig{EdgeBytes: 64 << 20, MetroBytes: 2 << 30, TTLSec: 6 * 3600, ColdCells: cold}
	}
	narrow, rungs := "", 0 // the service with the fewest rungs
	for _, svc := range services.All() {
		org, err := expcache.Origin(svc)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(org.Pres.Video); narrow == "" || n < rungs {
			narrow, rungs = svc.Name, n
		}
	}
	type cellCase struct {
		name string
		cfg  Config
		k    int
	}
	cases := []cellCase{
		{"hot", Config{Seed: 9, Sessions: 5000, ClientsPerCell: 5000, FidelityFull: 0.02, Cache: cc("0")}, 0},
		{"24 members", Config{Seed: 4, Sessions: 240, FidelityFull: 0.25}, 3},
		{"focus", Config{Seed: 6, Sessions: 48, FidelityFull: 0.5, FocusSessions: 16}, -1},
		{"cache tier", Config{Seed: 7, Sessions: 240, FidelityFull: 0.25, Cache: cc("")}, 2},
		{"narrow ladders", Config{Seed: 8, Sessions: 240, FidelityFull: 0.25, Services: make([]string, 12)}, 5},
	}
	for i := range cases[4].cfg.Services {
		cases[4].cfg.Services[i] = narrow
	}
	type cellOut struct{ fc, fs string }
	runs := make([]func(*shardScratch) cellOut, len(cases))
	for i, c := range cases {
		cfg, cold, err := c.cfg.normalize()
		if err != nil {
			t.Fatal(err)
		}
		tab, err := newCellTables(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, k := focusPlan(cfg), c.k
		if k < 0 {
			for cell, members := range plan {
				if k < 0 || len(members) > len(plan[k]) || len(members) == len(plan[k]) && cell < k {
					k = cell
				}
			}
		}
		runs[i] = func(scratch *shardScratch) cellOut {
			var metro *cdn.Metro
			if cfg.Cache != nil {
				metro = scratch.freshMetro(*cfg.Cache)
				tab.catalog.WarmMetro(metro)
			}
			fc, fs, err := runCell(cfg, k, newRunSpec(cfg), newCellSpec(cfg, k, cold[k]), tab, metro, plan[k], scratch)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if c.name == "focus" && len(fs) == 0 {
				t.Fatalf("%s: cell %d has no focus session", c.name, k)
			}
			return cellOut{fmt.Sprintf("%+v", *fc), fmt.Sprintf("%+v", fs)}
		}
	}
	want := make([]cellOut, len(cases))
	for i, run := range runs {
		want[i] = run(new(shardScratch))
	}
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0, 4}, {1, 0, 2, 0, 3}} {
		scratch := new(shardScratch)
		for _, i := range order {
			if got := runs[i](scratch); got != want[i] {
				t.Errorf("order %v: the %s cell on a recycled scratch differs from a new scratch's:\n got %.300s\nwant %.300s", order, cases[i].name, got, want[i])
			}
		}
	}
}

// TestHotCellAllocBudget holds one crowded cold cached cell — the flash
// crowd's cell 0 scaled down, members and edge rate alike: 2.5 Mbit/s per
// 5 000 members — to its budgets, at 5 000 and at 50 000 members.
//
// The whole cell is held to 1 024 allocated bytes per member, so nothing
// in it — network, caches, fleet, Group or either client tier — is sized
// by the population again unnoticed. Measured 433 B a member at 5 000 and
// 306 B at 50 000. With every full session built at the start it was 484
// and 355 B; with the control and Summary slabs sized by the population
// as well about 810 B at 5 000, and with an access link, a connection and
// an abandoned transfer per member on top about 1 150 B.
//
// Each client tier is held to bytes per drawn member plus bytes per
// peak-live member. A full-rate heap profile splits what the cell
// allocates by stack (tierAllocs). For the cohort the per-live term is
// what it allocates as a member takes a slot or a ring (Cohort.PeakLive
// members), the per-drawn term the rest of what it allocates. Measured:
// 34 B per drawn member at 5 000 and 32 B at 50 000 (the draw slab, 32 B
// a member, and the cell's interned templates), 481 and 396 B per
// peak-live member (817 and 7 848 live; slot and ring chunks grow by
// doubling, so up to half of the last one is spare). With the control and
// Summary slabs, the configs and a client per drawn member it was 341 and
// 331 B per drawn member.
//
// A full session is lent: the peak-live count is the sessions the scratch
// ever built, and the per-live term is the memory those keep — the
// session, its connection table, buffers, request metadata and document
// queue, its edge-cache client — with the connections, transfers and
// links the network's free lists grow for them. The per-drawn term is
// what every arrival allocates anew: its estimator, its manifest URL.
// Measured: 45 and 41 B per drawn full member (109 and 992 drawn), 4 053
// and 4 163 B per peak-live session (23 and 173 live). Built at the start
// they allocated 3 400 B per drawn full member. The budgets leave 1.9x
// and 1.33x headroom on the cohort terms, 1.4x and 1.23x on the full ones.
func TestHotCellAllocBudget(t *testing.T) {
	const wholeBudget, drawnBudget, liveBudget = 1024, 64, 640
	const fullDrawnBudget, fullLiveBudget = 64, 5120
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
		var scratch *shardScratch
		run := func() {
			scratch = new(shardScratch)
			metro := scratch.freshMetro(*cfg.Cache)
			tab.catalog.WarmMetro(metro)
			if _, _, err := runCell(cfg, 0, newRunSpec(cfg), newCellSpec(cfg, 0, cold[0]), tab, metro, nil, scratch); err != nil {
				t.Fatal(err)
			}
		}
		run() // the origins are built once per process
		var ms0, ms1 runtime.MemStats
		cohort0, full0 := tierAllocs()
		runtime.ReadMemStats(&ms0)
		run()
		runtime.ReadMemStats(&ms1)
		cohort1, full1 := tierAllocs()
		drawnFull, liveFull := 0, len(scratch.sessions)
		for _, c := range scratch.draw.clients[:members] {
			if c.Full {
				drawnFull++
			}
		}
		whole := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(members)
		perDrawn := float64(cohort1.drawn-cohort0.drawn) / float64(members)
		perLive := float64(cohort1.live-cohort0.live) / float64(peak)
		perDrawnFull := float64(full1.drawn-full0.drawn) / float64(drawnFull)
		perLiveFull := float64(full1.live-full0.live) / float64(liveFull)
		t.Logf("%d members, %d live at peak: the cell allocates %.0f B per member; its cohort tier %.0f B per drawn member + %.0f B per peak-live member", members, peak, whole, perDrawn, perLive)
		t.Logf("%d full members drawn, %d live at peak: the full tier allocates %.0f B per drawn member + %.0f B per peak-live session", drawnFull, liveFull, perDrawnFull, perLiveFull)
		if whole > wholeBudget {
			t.Errorf("%d members: the cell allocates %.0f B per member, budget %d: something is sized by the population again", members, whole, wholeBudget)
		}
		if perDrawn > drawnBudget {
			t.Errorf("%d members: the cohort tier allocates %.0f B per drawn member, budget %d: something is sized by the population again", members, perDrawn, drawnBudget)
		}
		if perLive > liveBudget {
			t.Errorf("%d members: the cohort tier allocates %.0f B per peak-live member, budget %d", members, perLive, liveBudget)
		}
		if perDrawnFull > fullDrawnBudget {
			t.Errorf("%d members: the full tier allocates %.0f B per drawn full member, budget %d: full sessions are built before they arrive again", members, perDrawnFull, fullDrawnBudget)
		}
		if perLiveFull > fullLiveBudget {
			t.Errorf("%d members: the full tier allocates %.0f B per peak-live session, budget %d", members, perLiveFull, fullLiveBudget)
		}
	}
}

// TestWarmScratchCellAllocs: on a warm scratch an ordinary cell — 24
// members, a twentieth of them full, as in the mixed fleet — allocates its
// finishedCell and a small constant beside it: the cell's closures, and
// an estimator and a manifest URL per full member. The scratch is warmed
// by the same 40 cells; the mean over them is held to the budget, since a
// lent session still grows a buffer now and then, the first time it
// plays a service with shorter segments than any before. Measured 567 B a
// cell beyond its finishedCell (about 300 B, plus 250 B per full member;
// the largest single cell 8.7 KB, a video buffer's growth). A new network,
// cohort, group, draw and meta map per cell, and every full session built
// at the start, made it 31 KB.
func TestWarmScratchCellAllocs(t *testing.T) {
	const extraBudget = 1024
	cfg, err := Config{Seed: 12, Sessions: 24 * 40, FidelityFull: 0.05}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := newCellTables(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, scratch := newRunSpec(cfg), new(shardScratch)
	cell := func(k int) *finishedCell {
		fc, _, err := runCell(cfg, k, run, newCellSpec(cfg, k, false), tab, nil, nil, scratch)
		if err != nil {
			t.Fatal(err)
		}
		return fc
	}
	const cells = 40
	for k := 0; k < cells; k++ {
		cell(k) // warms the scratch, the origins and the service tables
	}
	extra, full := int64(0), 0
	for k := 0; k < cells; k++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		fc := cell(k)
		runtime.ReadMemStats(&ms1)
		extra += int64(ms1.TotalAlloc-ms0.TotalAlloc) - fc.bytes()
		full += int(fc.full)
	}
	mean := extra / cells
	t.Logf("a warm 24-member cell allocates %d B beyond its finishedCell (%d full members over %d cells)", mean, full, cells)
	if full == 0 {
		t.Fatal("no full member in the cells: the budget covers only the cohort")
	}
	if mean > extraBudget {
		t.Errorf("a warm 24-member cell allocates %d B beyond its finishedCell, budget %d: a cell builds something its scratch should lend", mean, extraBudget)
	}
}

// tierBytes is what a client tier allocated, split by whom it is for.
type tierBytes struct{ drawn, live uint64 }

// fullLive lists the innermost frames of the memory a lent full session
// keeps for the next member, or the network keeps on its free lists.
var fullLive = []string{
	"repro/internal/player.ReuseSession",
	"repro/internal/player.resized",
	"repro/internal/player.(*Session).newMeta",
	"repro/internal/player.(*Session).freeMeta",
	"repro/internal/player.(*Session).buildDocQueue",
	"repro/internal/player.(*Buffer).Insert",
	"repro/internal/cdn.(*Cell).ReuseClient",
	"repro/internal/fleet.(*shardScratch).",
	"repro/internal/simnet.",
}

// tierAllocs sums the heap profile over every allocation so far made for
// the two client tiers. The cohort's: the innermost frame of this module
// is a player function called from a Cohort method, or an edge-cache
// client constructor outside a full session; under Cohort.takeSlot or
// Cohort.takeRing it is per-live, else per-drawn. The full sessions':
// a Session method, ReuseSession or the scratch's fullSession is on the
// stack and the innermost frame is not a cache's; per-live when that
// frame is in fullLive, else per-drawn. Only exact while
// runtime.MemProfileRate is 1.
func tierAllocs() (cohort, full tierBytes) {
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
	for _, r := range recs[:n] {
		inner, inCohort, take, session := "", false, false, false
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			fn := f.Function
			if inner == "" && strings.HasPrefix(fn, "repro/") {
				inner = fn
			}
			inCohort = inCohort || strings.HasPrefix(fn, "repro/internal/player.(*Cohort).")
			take = take || strings.HasPrefix(fn, "repro/internal/player.(*Cohort).take")
			session = session || strings.HasPrefix(fn, "repro/internal/player.(*Session).") ||
				fn == "repro/internal/player.ReuseSession" || strings.HasPrefix(fn, "repro/internal/fleet.(*shardScratch).fullSession") ||
				fn == "repro/internal/fleet.(*shardScratch).checkService"
		}
		bytes := uint64(r.AllocBytes)
		client := inner == "repro/internal/cdn.(*Cell).NewClient" || inner == "repro/internal/cdn.(*Cell).ReuseClient"
		switch {
		case session && !strings.HasPrefix(inner, "repro/internal/cdn.(*cache)"):
			if slices.ContainsFunc(fullLive, func(p string) bool { return strings.HasPrefix(inner, p) }) {
				full.live += bytes
			} else {
				full.drawn += bytes
			}
		case !client && !(inCohort && strings.HasPrefix(inner, "repro/internal/player.")):
		case take:
			cohort.live += bytes
		default:
			cohort.drawn += bytes
		}
	}
	return cohort, full
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

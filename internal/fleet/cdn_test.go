package fleet

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/internal/cdn"
	schedpkg "repro/internal/sched"
)

// cdnCfg is the cache-enabled sibling of stealCfg: small enough to run
// in CI, with a metro tier so the shard-coupled path is exercised and
// a cold cell plus a failure so neither scenario path is dead code.
var cdnCfg = Config{
	Seed: 5, Sessions: 160, ArrivalWindowSec: 120, WatchSec: 30,
	ClientsPerCell: 2, FidelityFull: 0.6,
	Services: []string{"H1", "D2", "S1"},
	Cache: &cdn.CacheConfig{
		EdgeBytes:  32 << 20,
		MetroBytes: 512 << 20,
		TTLSec:     3600,
		ColdCells:  "2-5",
		FailCell:   0,
		FailAtSec:  60,
	},
}

// TestCacheDisabledIdentity is the tentpole determinism gate: a nil
// cache config and a transparent one (unlimited warm caches, no TTL)
// must both produce byte-identical reports — the transparent config
// normalizes away entirely, including the config echo and the report's
// cdn section.
func TestCacheDisabledIdentity(t *testing.T) {
	base := stealCfg
	off := fleetBytes(t, base, RunOptions{Workers: 2})

	transparent := base
	transparent.Cache = &cdn.CacheConfig{EdgeBytes: 0, TTLSec: 0, MetroBytes: -1}
	inf := fleetBytes(t, transparent, RunOptions{Workers: 2})
	if !bytes.Equal(off, inf) {
		t.Fatalf("transparent cache changed the report bytes (%d B vs %d B)", len(off), len(inf))
	}

	ncfg, err := transparent.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if ncfg.Cache != nil {
		t.Fatal("transparent cache config survived normalization")
	}
}

// TestCacheWorkersDeterminism: with the full cache tier on (edge +
// metro + cold cells + failure), the report bytes must be identical
// for any worker count and steal schedule — the metro cache is shard
// state folded in strict cell order, so the schedule cannot reach it.
func TestCacheWorkersDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	withSched(t, 8)
	serial := fleetBytes(t, cdnCfg, RunOptions{Workers: 1})
	parallel := fleetBytes(t, cdnCfg, RunOptions{Workers: 8})
	hog := fleetBytes(t, cdnCfg, RunOptions{Workers: 4, Steal: schedpkg.StealOptions{Hog: true}})
	noSteal := fleetBytes(t, cdnCfg, RunOptions{Workers: 4, Steal: schedpkg.StealOptions{DisableSteal: true}})
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("cache on: bytes differ between workers=1 (%d B) and workers=8 (%d B)", len(serial), len(parallel))
	}
	if !bytes.Equal(serial, hog) {
		t.Fatalf("cache on: steal-heavy schedule changed the bytes (%d B vs %d B)", len(serial), len(hog))
	}
	if !bytes.Equal(serial, noSteal) {
		t.Fatalf("cache on: steal-free schedule changed the bytes (%d B vs %d B)", len(serial), len(noSteal))
	}
}

// TestCacheReportSection: a cache-enabled run reports the cdn section
// with coherent accounting; a disabled run omits it.
func TestCacheReportSection(t *testing.T) {
	rep, err := RunWithOptions(context.Background(), cdnCfg, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.CDN
	if c == nil {
		t.Fatal("cache-enabled run has no cdn report section")
	}
	if c.EdgeHits+c.EdgeMisses == 0 {
		t.Fatal("no media requests classified")
	}
	if c.HitRatio < 0 || c.HitRatio > 1 {
		t.Fatalf("hit ratio %.3f out of range", c.HitRatio)
	}
	if c.OriginBytes > c.BackhaulBytes+1e-6 {
		t.Fatalf("origin bytes %.0f exceed backhaul bytes %.0f", c.OriginBytes, c.BackhaulBytes)
	}
	if want := c.HitBytes + c.BackhaulBytes - c.OriginBytes; c.OriginOffloadBytes != want {
		t.Fatalf("offload bytes %.0f, want %.0f", c.OriginOffloadBytes, want)
	}
	if c.CellHitRatio.Count != int64(rep.Cells) {
		t.Fatalf("cell hit-ratio samples %d, want one per cell (%d)", c.CellHitRatio.Count, rep.Cells)
	}
	var bucketCells int64
	for _, b := range c.Buckets {
		bucketCells += b.Cells
	}
	if bucketCells > int64(rep.Cells) {
		t.Fatalf("buckets cover %d cells, fleet has %d", bucketCells, rep.Cells)
	}

	off, err := RunWithOptions(context.Background(), stealCfg, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if off.CDN != nil {
		t.Fatal("cache-disabled run reports a cdn section")
	}
}

// TestCacheColdCellsMiss: cold cells must show a strictly lower hit
// ratio than the same warm cells — the scenario is not a no-op.
func TestCacheColdCellsMiss(t *testing.T) {
	warm := cdnCfg
	warm.Cache = &cdn.CacheConfig{EdgeBytes: 256 << 20, TTLSec: 3600}
	cold := warm
	cc := *warm.Cache
	cc.ColdCells = "0-1000" // every cell cold
	cold.Cache = &cc
	wrep, err := RunWithOptions(context.Background(), warm, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	crep, err := RunWithOptions(context.Background(), cold, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if crep.CDN.HitRatio >= wrep.CDN.HitRatio {
		t.Fatalf("cold fleet hit ratio %.3f not below warm %.3f", crep.CDN.HitRatio, wrep.CDN.HitRatio)
	}
}

// TestCacheCellCacheKey: the sweep cell-cache must key on the cache
// config — two runs differing only in cache settings can never share
// cell entries — while metro-coupled cells bypass the memo entirely.
func TestCacheCellCacheKey(t *testing.T) {
	cc := NewCellCache()
	edgeOnly := cdnCfg
	edgeOnly.Cache = &cdn.CacheConfig{EdgeBytes: 32 << 20, TTLSec: 3600}
	a := fleetBytes(t, edgeOnly, RunOptions{Workers: 2, CellCache: cc})
	bigger := edgeOnly
	bigger.Cache = &cdn.CacheConfig{EdgeBytes: 256 << 20, TTLSec: 3600}
	b := fleetBytes(t, bigger, RunOptions{Workers: 2, CellCache: cc})
	if bytes.Equal(a, b) {
		t.Fatal("different edge capacities produced identical reports; key too coarse or stale cells served")
	}
	// Replays must still hit warm.
	before := cc.Stats()
	a2 := fleetBytes(t, edgeOnly, RunOptions{Workers: 2, CellCache: cc})
	if !bytes.Equal(a, a2) {
		t.Fatal("warm replay changed the report bytes")
	}
	after := cc.Stats()
	if after.Builds != before.Builds {
		t.Fatalf("warm replay rebuilt %d cells", after.Builds-before.Builds)
	}

	// Metro tier on: every cell bypasses the memo (shard-coupled).
	mc := NewCellCache()
	fleetBytes(t, cdnCfg, RunOptions{Workers: 2, CellCache: mc})
	s := mc.Stats()
	if s.Builds != 0 || s.Hits != 0 {
		t.Fatalf("metro-coupled cells used the memo: %+v", s)
	}
	if s.Skipped == 0 {
		t.Fatal("metro-coupled cells not counted as skipped")
	}
}

// TestCellSpecIgnoresOtherCells: a cell's spec — hence its CellCache key
// — moves with its own cold bit and its own armed failure only, so sweep
// points that differ in some other cell's cold or fail status still share
// this cell's entry.
func TestCellSpecIgnoresOtherCells(t *testing.T) {
	key := func(cc cdn.CacheConfig, k int) cellKey {
		t.Helper()
		cfg := cdnCfg
		cfg.Cache = &cc
		ncfg, cold, err := cfg.normalize()
		if err != nil {
			t.Fatal(err)
		}
		digest, err := runDigest(newRunSpec(ncfg))
		if err != nil {
			t.Fatal(err)
		}
		return cellKey{digest, newCellSpec(ncfg, k, cold[k])}
	}
	base := cdn.CacheConfig{EdgeBytes: 32 << 20, TTLSec: 3600, ColdCells: "2-5", FailCell: 1, FailAtSec: 60}
	moreCold, failElsewhere, failLater := base, base, base
	moreCold.ColdCells = "2-6"
	failElsewhere.FailCell = 7
	failLater.FailAtSec = 90
	for _, tc := range []struct {
		name    string
		other   cdn.CacheConfig
		changed []int // the cells whose key must move; every other cell's must not
	}{
		{"cold set grows", moreCold, []int{6}},
		{"failure moves", failElsewhere, []int{1, 7}},
		{"failure time moves", failLater, []int{1}},
	} {
		for k := 0; k < 10; k++ {
			want := false
			for _, c := range tc.changed {
				want = want || c == k
			}
			if got := key(base, k) != key(tc.other, k); got != want {
				t.Errorf("%s: cell %d key changed = %v, want %v", tc.name, k, got, want)
			}
		}
	}
}

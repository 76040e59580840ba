package fleet

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/cdn"
)

// sweepCfg is the warm-sweep scenario: enough sessions to span many
// cells, a fidelity mix so both tiers run, and a service subset to keep
// the runtime small.
var sweepCfg = Config{
	Seed: 11, Sessions: 600, ArrivalWindowSec: 120, WatchSec: 40,
	ClientsPerCell: 24, FidelityFull: 0.25,
	Services: []string{"H1", "D2", "S1"},
}

// TestCellCacheDeterminism pins the cache's core contract: a run served
// from cached cell aggregates produces byte-identical report JSON to a
// cold run, and a re-run of the same config is served entirely from the
// cache.
func TestCellCacheDeterminism(t *testing.T) {
	cold := fleetBytes(t, sweepCfg, RunOptions{Workers: 4})

	cache := NewCellCache()
	first := fleetBytes(t, sweepCfg, RunOptions{Workers: 4, CellCache: cache})
	if !bytes.Equal(cold, first) {
		t.Fatalf("cache-enabled cold run changed the report bytes (%d B vs %d B)", len(cold), len(first))
	}
	s := cache.Stats()
	ncfg, err := sweepCfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	nCells := int64(cellCount(ncfg))
	if s.Builds != nCells || s.Hits != 0 || s.Skipped != 0 {
		t.Fatalf("cold run stats = %+v, want %d builds and no hits", s, nCells)
	}

	warm := fleetBytes(t, sweepCfg, RunOptions{Workers: 4, CellCache: cache})
	if !bytes.Equal(cold, warm) {
		t.Fatalf("fully cached run changed the report bytes (%d B vs %d B)", len(cold), len(warm))
	}
	s = cache.Stats()
	if s.Builds != nCells || s.Hits != nCells {
		t.Fatalf("warm run stats = %+v, want %d builds and %d hits", s, nCells, nCells)
	}
}

// TestWarmSweepHitRate pins the incremental-recomputation win on the
// canonical sweep: hotspot 0 → 0.2 with a shared cache. The hotspot
// point re-lays cell 0 and the balanced remainder, but every balanced
// cell whose seed stream and size repeat must hit — ≥90% of the second
// run's cells — and its bytes must equal a cold run of the same point.
func TestWarmSweepHitRate(t *testing.T) {
	hotCfg := sweepCfg
	hotCfg.Hotspot = 0.2
	coldHot := fleetBytes(t, hotCfg, RunOptions{Workers: 4})

	cache := NewCellCache()
	fleetBytes(t, sweepCfg, RunOptions{Workers: 4, CellCache: cache})
	base := cache.Stats()

	warmHot := fleetBytes(t, hotCfg, RunOptions{Workers: 4, CellCache: cache})
	if !bytes.Equal(coldHot, warmHot) {
		t.Fatalf("warm sweep point changed the report bytes (%d B vs %d B)", len(coldHot), len(warmHot))
	}
	s := cache.Stats()
	hits := s.Hits - base.Hits
	builds := s.Builds - base.Builds
	ncfg, err := hotCfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	total := int64(cellCount(ncfg))
	if hits+builds != total {
		t.Fatalf("hits %d + builds %d != %d cells", hits, builds, total)
	}
	if rate := float64(hits) / float64(total); rate < 0.9 {
		t.Fatalf("warm sweep hit rate %.0f%% (%d/%d), want >= 90%%", rate*100, hits, total)
	}
}

// TestCellCacheFocusBypass pins the focus carve-out: cells carrying
// focus members run cold every time (their FocusSession records are not
// part of the cached value), count as skipped, and the report — focus
// section included — stays byte-identical to an uncached run.
func TestCellCacheFocusBypass(t *testing.T) {
	cfg := sweepCfg
	cfg.FocusSessions = 5
	cold := fleetBytes(t, cfg, RunOptions{Workers: 4})

	cache := NewCellCache()
	fleetBytes(t, cfg, RunOptions{Workers: 4, CellCache: cache})
	warm := fleetBytes(t, cfg, RunOptions{Workers: 4, CellCache: cache})
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cached focus run changed the report bytes (%d B vs %d B)", len(cold), len(warm))
	}
	s := cache.Stats()
	if s.Skipped == 0 {
		t.Fatal("focus cells did not register as skipped")
	}
	ncfg, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	nFocusCells := int64(len(focusPlan(ncfg)))
	if s.Skipped != 2*nFocusCells {
		t.Fatalf("skipped = %d, want %d (two runs x %d focus cells)", s.Skipped, 2*nFocusCells, nFocusCells)
	}
	if s.Builds+nFocusCells != int64(cellCount(ncfg)) {
		t.Fatalf("builds %d + focus cells %d != %d cells", s.Builds, nFocusCells, cellCount(ncfg))
	}
}

// TestRunCanceledContext pins mid-run cancellation: a canceled context
// stops the run between cells and surfaces the context error instead of
// a report.
func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunWithOptions(ctx, sweepCfg, RunOptions{Workers: 2})
	if err == nil {
		t.Fatal("canceled context produced a report without error")
	}
	if rep != nil {
		t.Fatalf("canceled context produced a report: %p", rep)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// budgetCfg is the budgets' scenario: 100 cells of 24 sessions over all
// 12 services, every session on the (cheap) background tier.
var budgetCfg = Config{Seed: 5, Sessions: 2400, ClientsPerCell: 24, FidelityFull: -1}

// TestCellCacheRetainedBytes holds a cached cell to what a 24-session
// cell carries: the live heap a filled CellCache keeps, per cell, memo
// included. A dense entry (two slabs over 12 services) was 13.4 KiB.
func TestCellCacheRetainedBytes(t *testing.T) {
	withSched(t, 1)
	// Everything a first run leaves behind that is not the cache — the
	// origin memo, the canonical traces — is built before the baseline.
	fleetBytes(t, budgetCfg, RunOptions{Workers: 1})
	// The live heap once it holds still across a collection: read right
	// after a run, it could still count tens of KB the run let go of a
	// moment later, and about one run in thirty read as cache bytes freed.
	heap := func() uint64 {
		t.Helper()
		var ms runtime.MemStats
		last := uint64(0)
		for range 50 {
			time.Sleep(time.Millisecond)
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc == last {
				return last
			}
			last = ms.HeapAlloc
		}
		t.Fatalf("the live heap never held still across two collections in 50 tries (last %d B)", last)
		return 0
	}
	before := heap()
	cache := NewCellCache()
	fleetBytes(t, budgetCfg, RunOptions{Workers: 1, CellCache: cache})
	after := heap()
	s := cache.Stats()
	runtime.KeepAlive(cache)
	if s.Cells != 100 || s.Builds != 100 {
		t.Fatalf("stats = %+v, want 100 cells built", s)
	}
	perCell := (float64(after) - float64(before)) / float64(s.Cells)
	t.Logf("live heap %.0f B per cached cell; Stats().Bytes %.0f B per cell", perCell, float64(s.Bytes)/float64(s.Cells))
	if perCell > 4<<10 {
		t.Errorf("a cached cell retains %.0f B of live heap, budget 4096", perCell)
	}
	// Bytes is the sum over the compact forms, so it is exact, repeats, and
	// sits below the measured heap (which adds the memo and size classes).
	if float64(s.Bytes) > float64(after)-float64(before) || s.Bytes < 100*500 {
		t.Errorf("Stats().Bytes = %d is not a plausible share of the %d B the cache retains", s.Bytes, after-before)
	}
	again := NewCellCache()
	fleetBytes(t, budgetCfg, RunOptions{Workers: 1, CellCache: again})
	if a := again.Stats(); a.Bytes != s.Bytes || a.Cells != s.Cells {
		t.Errorf("the same run filled a second cache with %d cells / %d B, the first with %d / %d", a.Cells, a.Bytes, s.Cells, s.Bytes)
	}
}

// TestWarmRunAllocs budgets what a warm run allocates, on one worker: the
// whole 100-cell run against a recorded constant, and the marginal cell —
// the difference to a 200-cell run — against its shard's share. A warm
// cell itself allocates nothing: a map lookup and a compact merge.
// Measured 1397 for the run (≈ 1250 of them normalize and the service
// tables resolving names through services.All, then the report) and 1463
// for 200 cells: 0.7 a cell, the 11 allocations of a 16-cell shard (its
// dense fleetAgg and the scratch header). With dense cells under a
// fingerprint per cell the same runs allocated 2034 and 2594 times, 5.6 a
// cell: the boxed spec, a hasher, a sha256 state and the key, each time.
func TestWarmRunAllocs(t *testing.T) {
	const runBudget, perCellBudget = 1500, 1.2
	withSched(t, 1)
	warmAllocs := func(cells int) float64 {
		t.Helper()
		cfg := budgetCfg
		cfg.Sessions = cells * cfg.ClientsPerCell
		cache := NewCellCache()
		opts := RunOptions{Workers: 1, CellCache: cache}
		run := func() {
			if _, err := RunWithOptions(context.Background(), cfg, opts); err != nil {
				t.Fatal(err)
			}
		}
		run()
		allocs := testing.AllocsPerRun(5, run)
		if s := cache.Stats(); s.Builds != int64(cells) || s.Hits != 6*int64(cells) {
			t.Fatalf("stats = %+v, want %d builds and %d hits: the measured runs were not warm", s, cells, 6*cells)
		}
		return allocs
	}
	a100, a200 := warmAllocs(100), warmAllocs(200)
	t.Logf("a warm run allocates %.0f times over 100 cells, %.0f over 200", a100, a200)
	if a100 > runBudget {
		t.Errorf("a warm 100-cell run allocates %.0f times, budget %d", a100, runBudget)
	}
	if perCell := (a200 - a100) / 100; perCell > perCellBudget {
		t.Errorf("a warm cell allocates %.2f times, budget %.1f", perCell, perCellBudget)
	}
}

// TestCellKeyCoversEveryField perturbs, one at a time, every field of
// both halves of a cell's spec — found by reflection, following the cache
// config pointer — and requires each to move the cell's key, so a field
// added later to runSpec, cellSpec or cdn.CacheConfig cannot be left out
// of it.
func TestCellKeyCoversEveryField(t *testing.T) {
	newSpecs := func() (*runSpec, *cellSpec) {
		return &runSpec{
				ArrivalWindowSec: 600, WatchSec: 120, AbandonProb: 0.35, AbandonMeanSec: 45,
				EdgeMbps: 40, FidelityFull: 0.05, Services: []string{"H1", "D2"},
				Cache: &cdn.CacheConfig{EdgeBytes: 1 << 20, EdgeNodes: 4, BackhaulMbps: 200},
			},
			&cellSpec{Seed: 7, Size: 24}
	}
	key := func(run *runSpec, cell *cellSpec) cellKey {
		t.Helper()
		digest, err := runDigest(run)
		if err != nil {
			t.Fatal(err)
		}
		return cellKey{digest, *cell}
	}
	run, cell := newSpecs()
	base := key(run, cell)
	if again := key(newSpecs()); again != base {
		t.Fatal("equal specs at different addresses produced different keys")
	}

	// fields lists the paths of v's leaf fields, through struct pointers.
	var fields func(v reflect.Value, path []int) [][]int
	fields = func(v reflect.Value, path []int) (out [][]int) {
		for i := 0; i < v.NumField(); i++ {
			f, p := v.Field(i), append(append([]int(nil), path...), i)
			if f.Kind() == reflect.Pointer {
				f = f.Elem()
			}
			if f.Kind() == reflect.Struct {
				out = append(out, fields(f, p)...)
			} else {
				out = append(out, p)
			}
		}
		return out
	}
	perturb := func(root reflect.Value, path []int) string {
		t.Helper()
		f, name := root, root.Type().Name()
		for _, i := range path {
			if f.Kind() == reflect.Pointer {
				f = f.Elem()
			}
			name += "." + f.Type().Field(i).Name
			f = f.Field(i)
		}
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(f.Float() + 1)
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Slice:
			f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
		default:
			t.Fatalf("%s: no perturbation for kind %s; extend this test", name, f.Kind())
		}
		return name
	}
	n := 0
	for _, path := range fields(reflect.ValueOf(run).Elem(), nil) {
		r, c := newSpecs()
		if name := perturb(reflect.ValueOf(r).Elem(), path); key(r, c) == base {
			t.Errorf("changing %s does not move the cell key", name)
		}
		n++
	}
	for _, path := range fields(reflect.ValueOf(cell).Elem(), nil) {
		r, c := newSpecs()
		if name := perturb(reflect.ValueOf(c).Elem(), path); key(r, c) == base {
			t.Errorf("changing %s does not move the cell key", name)
		}
		n++
	}
	if want := reflect.TypeOf(runSpec{}).NumField() - 1 + reflect.TypeOf(cdn.CacheConfig{}).NumField() + reflect.TypeOf(cellSpec{}).NumField(); n != want {
		t.Errorf("perturbed %d fields, the three structs have %d", n, want)
	}
}

package fleet

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cdn"
	"repro/internal/expcache"
	"repro/internal/origin"
	"repro/internal/player"
	schedpkg "repro/internal/sched"
	"repro/internal/services"
)

// withSched swaps the package scheduler so a test controls parallelism
// independently of the machine (the CI box may have one core; the
// determinism contract must be exercised with real concurrency anyway).
func withSched(t *testing.T, capacity int) {
	t.Helper()
	old := sched
	sched = schedpkg.New(capacity)
	t.Cleanup(func() { sched = old })
}

// cellClients draws cell k's members on their own; the config must be
// normalized.
func cellClients(cfg Config, k int) []Client {
	cell := newCellSpec(cfg, k, false)
	return drawClients(newRunSpec(cfg), cell, rand.New(rand.NewSource(cell.Seed)), new(drawBuf))
}

func TestWorkloadDeterminism(t *testing.T) {
	cfg, err := Config{Seed: 3, Sessions: 500}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	a, b := Workload(cfg), Workload(cfg)
	if len(a) != 500 {
		t.Fatalf("got %d clients", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("client %d differs between identical draws: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Workload is the concatenation of per-cell streams; arrivals are
	// sorted within each cell, and each cell's draw must be computable
	// standalone (the work-stealing contract: a stolen cell redraws its
	// members identically anywhere).
	nCells := cellCount(cfg)
	off := 0
	for k := 0; k < nCells; k++ {
		cell := cellClients(cfg, k)
		if len(cell) != cellSize(cfg, k) {
			t.Fatalf("cell %d drew %d members, sized %d", k, len(cell), cellSize(cfg, k))
		}
		prev := 0.0
		for i, c := range cell {
			if a[off+i] != c {
				t.Fatalf("cell %d member %d: standalone draw %+v != workload %+v", k, i, c, a[off+i])
			}
			if c.Arrival < prev {
				t.Fatalf("cell %d arrivals not sorted at member %d", k, i)
			}
			prev = c.Arrival
			if c.Arrival >= cfg.ArrivalWindowSec {
				t.Fatalf("cell %d member %d arrival %.1f outside window", k, i, c.Arrival)
			}
			if c.Watch < 5 || c.Watch > cfg.WatchSec {
				t.Fatalf("cell %d member %d watch %.1f outside [5, %.0f]", k, i, c.Watch, cfg.WatchSec)
			}
			if c.Service < 0 || c.Service >= len(cfg.Services) || c.Trace < 1 || c.Trace > 14 {
				t.Fatalf("cell %d member %d out-of-range draw: %+v", k, i, c)
			}
			if !c.Full {
				t.Fatalf("cell %d member %d drew background at FidelityFull=1", k, i)
			}
		}
		off += len(cell)
	}
	if off != len(a) {
		t.Fatalf("cells cover %d of %d clients", off, len(a))
	}
	cfg2 := cfg
	cfg2.Seed = 4
	c := Workload(cfg2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

// TestHotspotLayout pins the flash-crowd partitioning: cell 0 carries
// round(Hotspot·Sessions) members, the remainder spreads over balanced
// cells, sizes always sum to the population, and Hotspot = 0 reproduces
// the legacy layout cell for cell.
func TestHotspotLayout(t *testing.T) {
	for _, tc := range []struct {
		sessions int
		hotspot  float64
		hot      int
	}{
		{1000, 0.8, 800},
		{1000, 0.5, 500},
		{25, 0.95, 24},
		{7, 0.99, 7}, // clamped to 0.95 → round(6.65)
		{100, 1.0, 95},
	} {
		cfg, err := Config{Seed: 1, Sessions: tc.sessions, Hotspot: tc.hotspot}.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		if got := cellSize(cfg, 0); got != tc.hot {
			t.Errorf("Sessions=%d Hotspot=%v: cell 0 holds %d, want %d", tc.sessions, tc.hotspot, got, tc.hot)
		}
		total := 0
		for k := 0; k < cellCount(cfg); k++ {
			sz := cellSize(cfg, k)
			if k > 0 && sz > cfg.ClientsPerCell {
				t.Errorf("Sessions=%d Hotspot=%v: balanced cell %d holds %d > ClientsPerCell %d",
					tc.sessions, tc.hotspot, k, sz, cfg.ClientsPerCell)
			}
			total += sz
		}
		if total != tc.sessions {
			t.Errorf("Sessions=%d Hotspot=%v: cell sizes sum to %d", tc.sessions, tc.hotspot, total)
		}
		if len(Workload(cfg)) != tc.sessions {
			t.Errorf("Sessions=%d Hotspot=%v: workload size mismatch", tc.sessions, tc.hotspot)
		}
	}
	// Hotspot == 0 must leave the legacy layout untouched.
	legacy, err := Config{Seed: 2, Sessions: 100}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n := cellCount(legacy); n != 5 {
		t.Fatalf("legacy cell count %d, want 5", n)
	}
	for k := 0; k < 5; k++ {
		if sz := cellSize(legacy, k); sz != 20 {
			t.Fatalf("legacy cell %d size %d, want 20", k, sz)
		}
	}
}

// TestWorkloadFidelityMix checks the fidelity draw tracks the configured
// probability and stays inside each cell's private stream.
func TestWorkloadFidelityMix(t *testing.T) {
	cfg, err := Config{Seed: 9, Sessions: 2000, FidelityFull: 0.25}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	for _, c := range Workload(cfg) {
		if c.Full {
			full++
		}
	}
	frac := float64(full) / float64(cfg.Sessions)
	if frac < 0.18 || frac > 0.32 {
		t.Fatalf("full-fidelity fraction %.3f far from configured 0.25", frac)
	}
	cfg.FidelityFull = -1 // re-normalizes to 0: all background
	ncfg, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range Workload(ncfg) {
		if c.Full {
			t.Fatalf("client %d drew full fidelity at FidelityFull=0", i)
		}
	}
}

// fleetBytes runs a config and returns the report JSON.
func fleetBytes(t *testing.T, cfg Config, opts RunOptions) []byte {
	t.Helper()
	rep, err := RunWithOptions(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// stealCfg spans several shards (cellsPerShard=16) with tiny cells so
// the steal-schedule tests actually exercise cross-shard folding.
var stealCfg = Config{
	Seed: 5, Sessions: 160, ArrivalWindowSec: 120, WatchSec: 30,
	ClientsPerCell: 2, FidelityFull: 0.6, FocusSessions: 4,
	Services: []string{"H1", "D2", "S1"},
}

// TestRunWorkersDeterminism is the regression test the fleet's whole
// design serves: the JSON report must be byte-identical between a
// serial run and a concurrent run on the same seed.
func TestRunWorkersDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	withSched(t, 8)
	serial := fleetBytes(t, stealCfg, RunOptions{Workers: 1})
	parallel := fleetBytes(t, stealCfg, RunOptions{Workers: 8})
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("report bytes differ between workers=1 (%d B) and workers=8 (%d B)", len(serial), len(parallel))
	}
}

// TestStealScheduleDeterminism pins the two extreme schedules: all
// shards seeded into one worker's deque (steal-heavy — every other
// worker must steal to get work) versus stealing disabled (static
// partitions). The report bytes must be identical to each other and to
// the default schedule. Run under -race this also exercises the steal
// layer's synchronization against concurrent shard folds.
func TestStealScheduleDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	withSched(t, 8)
	base := fleetBytes(t, stealCfg, RunOptions{Workers: 4})
	hog := fleetBytes(t, stealCfg, RunOptions{Workers: 4, Steal: schedpkg.StealOptions{Hog: true}})
	noSteal := fleetBytes(t, stealCfg, RunOptions{Workers: 4, Steal: schedpkg.StealOptions{DisableSteal: true}})
	if !bytes.Equal(base, hog) {
		t.Fatalf("steal-heavy schedule changed the report bytes (%d B vs %d B)", len(base), len(hog))
	}
	if !bytes.Equal(base, noSteal) {
		t.Fatalf("steal-free schedule changed the report bytes (%d B vs %d B)", len(base), len(noSteal))
	}

	// The hotspot layout piles most of the population onto cell 0 — the
	// flash-crowd regime where the simnet core runs its virtual-time
	// engine. The same byte-identity must hold across workers and steal
	// schedules there too: one crowded cell is still a pure function of
	// (config, cell index), just a slower one.
	hotCfg := Config{
		Seed: 7, Sessions: 400, ArrivalWindowSec: 60, WatchSec: 30,
		ClientsPerCell: 4, FidelityFull: 0.3, Hotspot: 0.6,
		Services: []string{"H1", "D2", "S1"},
	}
	hbase := fleetBytes(t, hotCfg, RunOptions{Workers: 1})
	hhog := fleetBytes(t, hotCfg, RunOptions{Workers: 4, Steal: schedpkg.StealOptions{Hog: true}})
	hnoSteal := fleetBytes(t, hotCfg, RunOptions{Workers: 4, Steal: schedpkg.StealOptions{DisableSteal: true}})
	if !bytes.Equal(hbase, hhog) {
		t.Fatalf("hotspot: steal-heavy schedule changed the report bytes (%d B vs %d B)", len(hbase), len(hhog))
	}
	if !bytes.Equal(hbase, hnoSteal) {
		t.Fatalf("hotspot: steal-free schedule changed the report bytes (%d B vs %d B)", len(hbase), len(hnoSteal))
	}
}

// TestSharedEdgeCoupling checks the population-level economics on one
// cell: with the edge budget fixed, raising concurrency must lower the
// per-client achieved (delivered) bitrate, and utilization must never
// exceed 1 (conservation as seen through the report). Seed 1 hands the
// two-client case the fastest cellular traces (14 and 13), so access
// links don't bind and the comparison isolates edge contention.
func TestSharedEdgeCoupling(t *testing.T) {
	perClientBps := func(sessions int) float64 {
		cfg := Config{
			Seed:             1,
			Sessions:         sessions,
			ArrivalWindowSec: 5, // near-simultaneous joins: sustained contention
			WatchSec:         60,
			AbandonProb:      -1, // everyone watches the full duration
			ClientsPerCell:   sessions,
			EdgeMbps:         10,
			Services:         []string{"H1"},
		}
		rep, err := Run(context.Background(), cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cells != 1 {
			t.Fatalf("expected one cell, got %d", rep.Cells)
		}
		if rep.EdgeUtilization.Over != 0 || rep.EdgeUtilization.Mean > 1+1e-9 {
			t.Fatalf("%d sessions: edge utilization exceeds 1 (mean %.4f, over %d)",
				sessions, rep.EdgeUtilization.Mean, rep.EdgeUtilization.Over)
		}
		return rep.TotalBytes * 8 / float64(sessions) / cfg.WatchSec
	}
	light := perClientBps(2)
	heavy := perClientBps(16)
	if light <= 0 {
		t.Fatalf("degenerate baseline throughput %.0f bit/s", light)
	}
	// 16 clients on 10 Mbit/s cap out at 0.625 Mbit/s each; 2 clients on
	// fast access links should each achieve several times that.
	if heavy >= light*0.7 {
		t.Fatalf("per-client throughput did not degrade under contention: 2 clients %.0f bit/s, 16 clients %.0f bit/s", light, heavy)
	}
}

// TestFidelityDifferential pins the background tier against full
// sessions: across seeds and contention levels, the coarse model's
// population aggregates must track the full simulation within stated
// tolerances — close enough that a mixed-fidelity fleet reports the
// same macro story, while costing a fraction of the work.
func TestFidelityDifferential(t *testing.T) {
	type level struct {
		edgeMbps float64
		// bitrate ratio bounds (background mean / full mean) and stall
		// ratio absolute delta bound, averaged over the seeds.
		rLo, rHi, stallTol float64
	}
	// Tolerances are empirical for the calibrated tier (bgSafetyFactor):
	// the background model shares the ladder and buffer gates with the
	// full player but has no pipeline, no replacement and a private EWMA
	// estimator (the full player reads network-wide delivery), so it
	// stays somewhat conservative under load even after calibration.
	levels := []level{
		{edgeMbps: 40, rLo: 0.70, rHi: 1.30, stallTol: 0.08},
		{edgeMbps: 8, rLo: 0.50, rHi: 1.40, stallTol: 0.12},
		{edgeMbps: 3, rLo: 0.45, rHi: 1.50, stallTol: 0.12},
	}
	for _, lv := range levels {
		var fullBr, bgBr, fullStall, bgStall float64
		seeds := []int64{1, 2, 3, 4, 5}
		for _, seed := range seeds {
			base := Config{
				Seed: seed, Sessions: 96, ArrivalWindowSec: 60, WatchSec: 60,
				ClientsPerCell: 8, EdgeMbps: lv.edgeMbps, Services: []string{"H1"},
			}
			full := base
			bg := base
			bg.FidelityFull = -1 // all background
			fr, err := Run(context.Background(), full, 1)
			if err != nil {
				t.Fatal(err)
			}
			br, err := Run(context.Background(), bg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if fr.BackgroundSessions != 0 || br.FullSessions != 0 {
				t.Fatalf("tier accounting wrong: full run bg=%d, bg run full=%d", fr.BackgroundSessions, br.FullSessions)
			}
			fullBr += fr.Services[0].BitrateMbps.Mean
			bgBr += br.Services[0].BitrateMbps.Mean
			fullStall += fr.Services[0].StallRatio.Mean
			bgStall += br.Services[0].StallRatio.Mean
		}
		n := float64(len(seeds))
		fullBr, bgBr, fullStall, bgStall = fullBr/n, bgBr/n, fullStall/n, bgStall/n
		if fullBr <= 0 {
			t.Fatalf("edge %.0f: degenerate full-fidelity bitrate %.3f", lv.edgeMbps, fullBr)
		}
		if ratio := bgBr / fullBr; ratio < lv.rLo || ratio > lv.rHi {
			t.Errorf("edge %.0f Mbit/s: background bitrate mean %.3f vs full %.3f (ratio %.2f outside [%.2f, %.2f])",
				lv.edgeMbps, bgBr, fullBr, ratio, lv.rLo, lv.rHi)
		}
		if d := math.Abs(bgStall - fullStall); d > lv.stallTol {
			t.Errorf("edge %.0f Mbit/s: stall ratio delta %.3f (background %.3f, full %.3f) exceeds %.3f",
				lv.edgeMbps, d, bgStall, fullStall, lv.stallTol)
		}
	}
}

// TestFocusInvariance: the focus sample must be a pure annex — at full
// fidelity, requesting focus sessions changes the focus section and
// nothing else, byte for byte.
func TestFocusInvariance(t *testing.T) {
	cfg := Config{Seed: 7, Sessions: 96, ArrivalWindowSec: 60, WatchSec: 40, ClientsPerCell: 8, Services: []string{"H1", "D2"}}
	plain, err := Run(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfgF := cfg
	cfgF.FocusSessions = 8
	focused, err := Run(context.Background(), cfgF, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Focus) != 0 {
		t.Fatalf("focus section present without FocusSessions: %d entries", len(plain.Focus))
	}
	if len(focused.Focus) == 0 || len(focused.Focus) > 8 {
		t.Fatalf("got %d focus entries, want 1..8", len(focused.Focus))
	}
	for i, f := range focused.Focus {
		if i > 0 {
			p := focused.Focus[i-1]
			if f.Cell < p.Cell || (f.Cell == p.Cell && f.Member <= p.Member) {
				t.Fatalf("focus entries out of order at %d: (%d,%d) after (%d,%d)", i, f.Cell, f.Member, p.Cell, p.Member)
			}
		}
		if f.Cell < 0 || f.Cell >= focused.Cells || f.Member < 0 || f.Member >= cellSize(cfgF, f.Cell) {
			t.Fatalf("focus entry %d has out-of-range coordinates: %+v", i, f)
		}
		if f.Service == "" || f.WatchSec <= 0 || len(f.Displayed) == 0 {
			t.Fatalf("focus entry %d incomplete: %+v", i, f)
		}
	}
	// Strip the annex; everything else must match byte for byte (the
	// config echo differs only in the FocusSessions field, masked too).
	focused.Focus = nil
	focused.Config.FocusSessions = 0
	a, err := plain.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := focused.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("focus sampling perturbed the population sections")
	}
}

// TestFocusPlanEmptyHotCell pins the layouts where the hot share rounds
// to zero sessions (round(Hotspot·Sessions) == 0 leaves cell 0 empty):
// on these seeds the focus stream draws cell 0, which used to reach
// rng.Intn(0) and kill the process outside runCell's recover.
func TestFocusPlanEmptyHotCell(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 6, Sessions: 1000, Hotspot: 0.0004, FocusSessions: 8},
		{Seed: 11, Sessions: 1000, Hotspot: 0.0004, FocusSessions: 8},
		{Seed: 2, Sessions: 2, Hotspot: 0.2, FocusSessions: 1},
	} {
		ncfg, err := cfg.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		if cellSize(ncfg, 0) != 0 {
			t.Fatalf("seed %d: cell 0 holds %d sessions, want an empty hot cell", cfg.Seed, cellSize(ncfg, 0))
		}
		picked := 0
		for cell, members := range focusPlan(ncfg) {
			for _, m := range members {
				if m < 0 || m >= cellSize(ncfg, cell) {
					t.Fatalf("seed %d: focus member %d outside cell %d of size %d", cfg.Seed, m, cell, cellSize(ncfg, cell))
				}
				picked++
			}
		}
		if picked != cfg.FocusSessions {
			t.Fatalf("seed %d: plan holds %d members, want %d", cfg.Seed, picked, cfg.FocusSessions)
		}
	}
	rep, err := Run(context.Background(), Config{Seed: 6, Sessions: 1000, Hotspot: 0.0004, FocusSessions: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 1000 || len(rep.Focus) != 8 {
		t.Fatalf("run completed with %d sessions and %d focus records, want 1000 and 8", rep.Sessions, len(rep.Focus))
	}
}

// TestReportAccounting checks the streaming aggregation preserves
// session counts exactly: nothing dropped, nothing double-counted —
// including the fidelity-tier split.
func TestReportAccounting(t *testing.T) {
	cfg := Config{Seed: 2, Sessions: 90, ArrivalWindowSec: 90, WatchSec: 30, ClientsPerCell: 12, FidelityFull: 0.5, Services: []string{"H1", "H4"}}
	rep, err := Run(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var svcTotal, started int64
	for _, s := range rep.Services {
		svcTotal += s.Sessions
		started += s.Started
		if s.Started > s.Sessions {
			t.Fatalf("%s: started %d > sessions %d", s.Service, s.Started, s.Sessions)
		}
		if s.BitrateMbps.Count != s.Started {
			t.Fatalf("%s: bitrate samples %d != started %d", s.Service, s.BitrateMbps.Count, s.Started)
		}
	}
	if svcTotal != int64(cfg.Sessions) || rep.Sessions != int64(cfg.Sessions) {
		t.Fatalf("session accounting: per-service sum %d, report %d, want %d", svcTotal, rep.Sessions, cfg.Sessions)
	}
	if started != rep.Started {
		t.Fatalf("started accounting: per-service sum %d, report %d", started, rep.Started)
	}
	if rep.FullSessions+rep.BackgroundSessions != int64(cfg.Sessions) {
		t.Fatalf("tier accounting: full %d + background %d != %d", rep.FullSessions, rep.BackgroundSessions, cfg.Sessions)
	}
	if rep.FullSessions == 0 || rep.BackgroundSessions == 0 {
		t.Fatalf("expected a mixed-tier population at FidelityFull=0.5, got full=%d background=%d", rep.FullSessions, rep.BackgroundSessions)
	}
	if rep.TotalBytes <= 0 {
		t.Fatal("no bytes delivered")
	}
	if rep.Schema != 2 {
		t.Fatalf("report schema %d, want 2", rep.Schema)
	}
}

// TestNegativeSentinelsMeanZero pins the sentinel path: negative
// FidelityFull / AbandonProb mean 0 (zero would select the defaults), the
// report echoes the 0s, and the whole population runs on the background
// tier — which holds only while Run normalizes the config exactly once.
func TestNegativeSentinelsMeanZero(t *testing.T) {
	cfg := Config{Seed: 11, Sessions: 24, ArrivalWindowSec: 30, WatchSec: 20, ClientsPerCell: 12, Services: []string{"H1"},
		FidelityFull: -1, AbandonProb: -1}
	rep, err := Run(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Config.FidelityFull != 0 || rep.Config.AbandonProb != 0 {
		t.Fatalf("report echoes FidelityFull=%v AbandonProb=%v, want 0 and 0", rep.Config.FidelityFull, rep.Config.AbandonProb)
	}
	if rep.FullSessions != 0 || rep.BackgroundSessions != int64(cfg.Sessions) {
		t.Fatalf("full=%d background=%d, want 0 and %d", rep.FullSessions, rep.BackgroundSessions, cfg.Sessions)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := (Config{Sessions: 0}).Normalized(); err == nil {
		t.Fatal("accepted zero sessions")
	}
	if _, err := (Config{Sessions: 10, Services: []string{"NOPE"}}).Normalized(); err == nil {
		t.Fatal("accepted unknown service")
	}
	n, err := (Config{Sessions: 10}).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Services) != 12 || n.AbandonProb != 0.35 {
		t.Fatalf("defaults not applied: %+v", n)
	}
	if n.FidelityFull != 1 || n.FocusSessions != 0 {
		t.Fatalf("fidelity defaults not applied: %+v", n)
	}
	n2, err := (Config{Sessions: 10, AbandonProb: -1, FidelityFull: -1, FocusSessions: -3}).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n2.AbandonProb != 0 {
		t.Fatalf("negative AbandonProb should normalize to 0, got %v", n2.AbandonProb)
	}
	if n2.FidelityFull != 0 || n2.FocusSessions != 0 {
		t.Fatalf("negative fidelity fields should clamp to 0: %+v", n2)
	}
	n3, err := (Config{Sessions: 10, FidelityFull: 3}).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n3.FidelityFull != 1 {
		t.Fatalf("FidelityFull should clamp to 1, got %v", n3.FidelityFull)
	}
}

// TestNonFiniteConfigRejected: a NaN or ±Inf in any float field of the
// config (the cache config included) is refused by Normalized with an
// error naming the field — not discovered by json.Marshal after the
// whole fleet has been simulated. The fields are enumerated by type, so
// a float added to either struct is covered without touching this test.
func TestNonFiniteConfigRejected(t *testing.T) {
	floatFields := func(v reflect.Value) (names []string) {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Kind() == reflect.Float64 {
				names = append(names, v.Type().Field(i).Name)
			}
		}
		return names
	}
	check := func(cfg Config, want string) {
		t.Helper()
		if _, err := cfg.Normalized(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s non-finite: got error %v, want one naming the field", want, err)
		}
	}
	top := floatFields(reflect.ValueOf(Config{}))
	sub := floatFields(reflect.ValueOf(cdn.CacheConfig{}))
	if len(top) != 7 || len(sub) != 7 {
		t.Fatalf("enumerated %d Config and %d CacheConfig float fields, want 7 and 7", len(top), len(sub))
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, name := range top {
			cfg := Config{Sessions: 8}
			reflect.ValueOf(&cfg).Elem().FieldByName(name).SetFloat(bad)
			check(cfg, name)
		}
		for _, name := range sub {
			cc := cdn.CacheConfig{EdgeBytes: 1 << 20}
			reflect.ValueOf(&cc).Elem().FieldByName(name).SetFloat(bad)
			check(Config{Sessions: 8, Cache: &cc}, "Cache."+name)
		}
	}
}

// TestRunCellContainsPanic pins the containment contract: a panic inside
// a cell — here an index out of range on a traces slice that is too
// short — returns as an error naming the cell and the seed (which
// RunStealing then propagates), not as a process crash from whichever
// helper goroutine ran the cell.
func TestRunCellContainsPanic(t *testing.T) {
	cfg, err := Config{Seed: 11, Sessions: 8, ClientsPerCell: 4, FidelityFull: -1, Services: []string{"H1"}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	svc := services.ByName("H1")
	org, err := expcache.Origin(svc)
	if err != nil {
		t.Fatal(err)
	}
	tab := &cellTables{
		svcs:        []*services.Service{svc},
		origins:     []*origin.Origin{org},
		bgTemplates: []player.BackgroundConfig{backgroundTemplate(org)},
	}
	_, _, err = runCell(cfg, 1, newRunSpec(cfg), newCellSpec(cfg, 1, false), tab, nil, nil, new(shardScratch))
	if err == nil {
		t.Fatal("runCell with no traces returned no error")
	}
	for _, want := range []string{"cell 1 ", "seed 11", "panicked", "index out of range", "runCell"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not mention %q:\n%v", want, err)
		}
	}
}

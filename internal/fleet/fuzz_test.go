package fleet

import (
	"testing"
)

// FuzzWorkload drives the workload model through arbitrary configs and
// checks the invariants every downstream consumer relies on: the draw
// is total (every session lands in exactly one cell), per-cell streams
// are self-contained and sorted, and every field stays in range. The
// fuzz-smoke Makefile target discovers this harness automatically.
func FuzzWorkload(f *testing.F) {
	f.Add(int64(1), 100, 24, 600.0, 120.0, 1.0)
	f.Add(int64(7), 3, 1, 5.0, 10.0, 0.5)
	f.Add(int64(-9), 1000, 7, 60.0, 30.0, 0.0)
	f.Add(int64(0), 17, 100, 1.0, 5.0, -2.0)
	f.Fuzz(func(t *testing.T, seed int64, sessions, perCell int, window, watch, fidelity float64) {
		if sessions < 1 || sessions > 5000 || perCell < -10 || perCell > 5000 {
			t.Skip()
		}
		if window < -10 || window > 1e6 || watch < -10 || watch > 1e6 || fidelity < -1e6 || fidelity > 1e6 {
			t.Skip()
		}
		cfg, err := Config{
			Seed: seed, Sessions: sessions, ClientsPerCell: perCell,
			ArrivalWindowSec: window, WatchSec: watch, FidelityFull: fidelity,
			Services: []string{"H1", "D2"},
		}.Normalized()
		if err != nil {
			t.Skip()
		}
		nCells := cellCount(cfg)
		if nCells < 1 {
			t.Fatalf("no cells for %d sessions", cfg.Sessions)
		}
		total := 0
		for k := 0; k < nCells; k++ {
			cell := cellClients(cfg, k)
			if len(cell) != cellSize(cfg, k) || len(cell) == 0 {
				t.Fatalf("cell %d size %d, want %d (nonzero)", k, len(cell), cellSize(cfg, k))
			}
			total += len(cell)
			prev := 0.0
			for i, c := range cell {
				if c.Arrival < prev || c.Arrival < 0 || c.Arrival >= cfg.ArrivalWindowSec {
					t.Fatalf("cell %d member %d arrival %v out of order or range", k, i, c.Arrival)
				}
				prev = c.Arrival
				if c.Watch <= 0 || c.Watch > cfg.WatchSec+1e-9 {
					t.Fatalf("cell %d member %d watch %v out of range", k, i, c.Watch)
				}
				if c.Service < 0 || c.Service >= len(cfg.Services) {
					t.Fatalf("cell %d member %d service %d out of range", k, i, c.Service)
				}
				if c.Trace < 1 || c.Trace > 14 {
					t.Fatalf("cell %d member %d trace %d out of range", k, i, c.Trace)
				}
				if c.Full && cfg.FidelityFull == 0 {
					t.Fatalf("cell %d member %d full at fidelity 0", k, i)
				}
				if !c.Full && cfg.FidelityFull == 1 {
					t.Fatalf("cell %d member %d background at fidelity 1", k, i)
				}
			}
			// The stolen-cell contract: an independent redraw is identical.
			again := cellClients(cfg, k)
			for i := range cell {
				if cell[i] != again[i] {
					t.Fatalf("cell %d member %d not reproducible: %+v vs %+v", k, i, cell[i], again[i])
				}
			}
		}
		if total != cfg.Sessions {
			t.Fatalf("cells cover %d of %d sessions", total, cfg.Sessions)
		}
		if plan := focusPlan(cfg); plan != nil {
			t.Fatalf("focus plan non-nil at FocusSessions=0: %v", plan)
		}
	})
}

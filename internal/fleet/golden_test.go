package fleet

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/cdn"
	"repro/internal/expcache"
)

// fleetGoldenCases are four small populations whose report bytes pin
// the whole fleet stack: cells that stay on simnet's anchored loop, a
// flash crowd that saturates cell 0 through the virtual-time loop with
// the benchmark's cache tier on, a partially loaded crowd where capped
// and uncapped flows coexist in the virtual-time loop, and a crowd of
// full players only, whose parallel connections share one access link
// each — capped and uncapped flows on the same link. The last two are
// the ones sensitive to float accumulation order in that loop.
var fleetGoldenCases = []struct {
	name string
	cfg  Config
}{
	{"mixed4800", Config{Seed: 1, Sessions: 4800, FidelityFull: 0.05}},
	{"flash20000", Config{
		Seed: 1, Sessions: 20000, Hotspot: 0.8, FidelityFull: 0.02,
		Cache: &cdn.CacheConfig{EdgeBytes: 64 << 20, MetroBytes: 2 << 30, TTLSec: 6 * 3600, ColdCells: "0-3", FailCell: 5, FailAtSec: 60},
	}},
	{"partial3000", Config{Seed: 1, Sessions: 3000, Hotspot: 0.8, FidelityFull: 0.05}},
	{"full1500", Config{Seed: 4, Sessions: 1500, Hotspot: 0.9, FidelityFull: 1}},
}

// fleetGolden holds the SHA-256 of Report.JSON() per case, keyed by
// expcache.EngineVersion so a bump fails loudly until the table is
// re-recorded for the new version with
//
//	go test ./internal/fleet -run TestFleetReportGolden | grep -oE '"[a-z0-9]+": +"[0-9a-f]{64}",'
//
// The "11" row is the "10" row, digest for digest: version 11 put the
// paper harness on the two loops the fleet already ran and moved no
// fleet byte.
var fleetGolden = map[string]map[string]string{
	"11": {
		"mixed4800":   "563bd4276602b9df4710318988fafa29d110331b0bc08ed12ff1475d12972a88",
		"flash20000":  "3b16551bfaf6931aa76e3b538101799e379d8a5e8b60e1a25f6d57fbe5996d86",
		"partial3000": "853a188f958aed04ab1e932fa21b86e227ba35c96a2461dc920be538527e1538",
		"full1500":    "be6d3611680d627cba2ca8a9c2086d2bae977fdecb954afca66425fc7f193587",
	},
}

// TestFleetReportGolden makes "report bytes unchanged" a test: any
// change to the bytes of these populations must come with an
// EngineVersion bump and a re-recorded row.
func TestFleetReportGolden(t *testing.T) {
	want, ok := fleetGolden[expcache.EngineVersion]
	if !ok {
		t.Errorf("no digests recorded for EngineVersion %q; re-record (see fleetGolden)", expcache.EngineVersion)
	}
	for _, gc := range fleetGoldenCases {
		t.Run(gc.name, func(t *testing.T) {
			got := fmt.Sprintf("%x", sha256.Sum256(fleetBytes(t, gc.cfg, RunOptions{Workers: 2})))
			if got != want[gc.name] {
				t.Errorf("digest moved:\n\t%q: %q,", gc.name, got)
			}
		})
	}
}

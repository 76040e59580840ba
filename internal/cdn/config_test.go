package cdn

import (
	"strings"
	"testing"
)

// rejected is a spec a parser must refuse, and the clause its error
// must name so that the user can find it on the command line.
type rejected struct{ spec, clause string }

func checkRejected(t *testing.T, r rejected, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("spec %q parsed without error", r.spec)
	}
	if !strings.Contains(err.Error(), r.clause) {
		t.Fatalf("spec %q: error %q does not name the clause %q", r.spec, err, r.clause)
	}
}

func TestParseCacheSpec(t *testing.T) {
	c, err := ParseCacheSpec("edge:512MiB,metro:8GiB,ttl=6h")
	if err != nil {
		t.Fatal(err)
	}
	if c.EdgeBytes != 512<<20 {
		t.Fatalf("EdgeBytes = %.0f, want %d", c.EdgeBytes, 512<<20)
	}
	if c.MetroBytes != 8<<30 {
		t.Fatalf("MetroBytes = %.0f, want %d", c.MetroBytes, 8<<30)
	}
	if c.TTLSec != 6*3600 {
		t.Fatalf("TTLSec = %.0f, want %d", c.TTLSec, 6*3600)
	}
	c, err = ParseCacheSpec("edge:0,metro:-1,ttl=0,nodes=2,backhaul=500,mrtt=20ms,ortt=80ms")
	if err != nil {
		t.Fatal(err)
	}
	if c.EdgeBytes != 0 || c.MetroBytes != -1 || c.EdgeNodes != 2 || c.BackhaulMbps != 500 {
		t.Fatalf("sentinel spec parsed wrong: %+v", c)
	}
	if c.MetroRTTSec != 0.02 || c.OriginRTTSec != 0.08 {
		t.Fatalf("RTT clauses parsed wrong: %+v", c)
	}
	for _, bad := range []rejected{
		{"edge", "edge"}, {"x:1", "x"}, {"edge:abc", "edge:abc"}, {"ttl=xh", "ttl=xh"},
		// strconv.ParseFloat takes these; a cache tier cannot.
		{"edge:NaN,ttl=Inf,backhaul=NaN", "edge:NaN"},
		{"edge:64MiB,ttl=Inf", "ttl=Inf"},
		{"edge:64MiB,metro:2GiB,backhaul=NaN", "backhaul=NaN"},
		{"edge:-Inf", "edge:-Inf"},
		{"edge:1e308GiB", "edge:1e308GiB"},
		{"mrtt=1e308h", "mrtt=1e308h"},
	} {
		_, err := ParseCacheSpec(bad.spec)
		checkRejected(t, bad, err)
	}
}

func TestParseFailSpec(t *testing.T) {
	var c CacheConfig
	if err := ParseFailSpec("cell=3,t=120s", &c); err != nil {
		t.Fatal(err)
	}
	if c.FailCell != 3 || c.FailAtSec != 120 {
		t.Fatalf("fail spec parsed wrong: %+v", c)
	}
	for _, bad := range []rejected{
		{"cell=3", "t=<time>"},
		{"cell=-5,t=Inf", "cell=-5"},
		{"cell=5,t=Inf", "t=Inf"},
		{"cell=5,t=NaN", "t=NaN"},
	} {
		var d CacheConfig
		checkRejected(t, bad, ParseFailSpec(bad.spec, &d))
	}
}

func TestParseCellSet(t *testing.T) {
	got, err := ParseCellSet("4,0-2,4")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("ParseCellSet = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseCellSet = %v, want %v", got, want)
		}
	}
	for _, bad := range []rejected{
		{"a", "a"}, {"3-1", "3-1"}, {"-2", "-2"},
		// Materialized index by index, this range never returned.
		{"0-3,0-4000000000", `"0-4000000000"`},
		{"4194304", `"4194304"`},
	} {
		_, err := ParseCellSet(bad.spec)
		checkRejected(t, bad, err)
	}
	if got, err := ParseCellSet("4194303"); err != nil || len(got) != 1 {
		t.Fatalf("the last index below maxCells: %v, %v", got, err)
	}
}

func TestTransparent(t *testing.T) {
	if !(CacheConfig{}).Transparent() {
		t.Fatal("zero config must be transparent")
	}
	if !(CacheConfig{EdgeBytes: 0, TTLSec: 0, MetroBytes: -1}).Transparent() {
		t.Fatal("unlimited warm config must be transparent")
	}
	for _, c := range []CacheConfig{
		{EdgeBytes: 1000},
		{TTLSec: 60},
		{ColdCells: "0"},
		{FailAtSec: 10},
	} {
		if c.Transparent() {
			t.Fatalf("%+v must not be transparent", c)
		}
	}
}

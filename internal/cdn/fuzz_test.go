package cdn

import (
	"math"
	"testing"
	"time"
)

// FuzzCacheInvariants drives one cache with an arbitrary operation
// stream decoded from the fuzz input and checks the structural
// invariants after every operation: used bytes never exceed the
// capacity, used always equals the sum of resident entry sizes, the
// LRU list and index stay consistent, and a fresh admit is immediately
// visible.
func FuzzCacheInvariants(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 0x10, 0x20})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		// Capacity and TTL come from the head of the stream so the
		// fuzzer explores tiny and huge caches alike.
		capBytes, ttl := 0.0, 0.0
		if len(data) >= 2 {
			capBytes = float64(data[0]) * 40
			ttl = float64(data[1])
			data = data[2:]
		}
		c := newCache(capBytes, ttl)
		now := 0.0
		for i := 0; i+3 < len(data); i += 4 {
			op, a, b, d := data[i], data[i+1], data[i+2], data[i+3]
			now += float64(d) / 16
			obj := Object{Catalog: int32(a % 4), Kind: a % 2, Track: int32(b % 8), Index: int32(b)}
			size := 1 + float64(a)*2
			switch op % 4 {
			case 0, 1:
				c.admit(now, obj, size)
				if capBytes <= 0 || size <= capBytes {
					if !c.lookup(now+1e-9, obj) && ttl > 1e-9 {
						t.Fatalf("op %d: fresh admit of %v not resident", i, obj)
					}
				}
			case 2:
				c.lookup(now, obj)
			case 3:
				c.drop()
			}
			if capBytes > 0 && c.used > capBytes+1e-9 {
				t.Fatalf("op %d: used %.1f exceeds cap %.1f", i, c.used, capBytes)
			}
			checkStructure(t, c)
		}
	})
}

// checkStructure validates the list/index/accounting invariants.
func checkStructure(t *testing.T, c *cache) {
	t.Helper()
	var used float64
	n := 0
	prev := nilEnt
	for e := c.head; e != nilEnt; e = c.ent[e].next {
		if c.ent[e].prev != prev {
			t.Fatalf("list corrupt at %d", e)
		}
		if got, ok := c.idx[c.ent[e].key]; !ok || got != e {
			t.Fatalf("index out of sync at %d", e)
		}
		used += c.ent[e].size
		n++
		prev = e
		if n > len(c.ent) {
			t.Fatal("LRU list cycles")
		}
	}
	if c.tail != prev || n != len(c.idx) {
		t.Fatalf("tail/count mismatch: tail %d vs %d, %d vs %d entries", c.tail, prev, n, len(c.idx))
	}
	if diff := c.used - used; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("used %.3f != entry sum %.3f", c.used, used)
	}
}

// FuzzParseSpecs feeds one string to the three flag mini-languages
// (-cache, -cachefail, -coldcells). Whatever the input, a parser must
// not panic, must return promptly, and on a nil error must hand the
// simulator values it can compute with: every number finite, a fail
// cell that exists, a cell set sorted, deduplicated and inside
// [0, maxCells).
func FuzzParseSpecs(f *testing.F) {
	for _, s := range []string{
		"edge:512MiB,metro:8GiB,ttl=6h,nodes=4,backhaul=200,mrtt=20ms,ortt=80ms",
		"edge:0,metro:-1,ttl=0",
		"cell=3,t=120s",
		"0-15,40,64-79",
		// The defects this target was written for.
		"edge:NaN,ttl=Inf,backhaul=NaN",
		"cell=-5,t=Inf",
		"0-4000000000",
		"edge:1e308GiB",
		"0-4194303,0-4194303,1-4194303",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		start := time.Now()
		finite := func(name string, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%q: %s = %v", s, name, v)
			}
		}
		check := func(c CacheConfig) {
			finite("EdgeBytes", c.EdgeBytes)
			finite("MetroBytes", c.MetroBytes)
			finite("TTLSec", c.TTLSec)
			finite("BackhaulMbps", c.BackhaulMbps)
			finite("MetroRTTSec", c.MetroRTTSec)
			finite("OriginRTTSec", c.OriginRTTSec)
			finite("FailAtSec", c.FailAtSec)
		}
		if c, err := ParseCacheSpec(s); err == nil {
			check(c)
		}
		var fc CacheConfig
		if err := ParseFailSpec(s, &fc); err == nil {
			check(fc)
			if fc.FailCell < 0 || fc.FailAtSec <= 0 {
				t.Fatalf("%q: accepted fail cell %d at t=%v", s, fc.FailCell, fc.FailAtSec)
			}
		}
		if cells, err := ParseCellSet(s); err == nil {
			for i, c := range cells {
				if c < 0 || c >= maxCells || i > 0 && c <= cells[i-1] {
					t.Fatalf("%q: cell set not sorted, deduplicated and in range at [%d] = %d", s, i, c)
				}
			}
		}
		// The largest legal cell set takes 0.1 s to build and check,
		// 1 s under the race detector; the unbounded range took minutes.
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("%q: parsing took %v", s, d)
		}
	})
}

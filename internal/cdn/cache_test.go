package cdn

import (
	"math/rand"
	"testing"
)

// randObj draws a small object universe so streams collide often.
func randObj(rng *rand.Rand) Object {
	return Object{
		Catalog: int32(rng.Intn(3)),
		Kind:    uint8(rng.Intn(2)),
		Track:   int32(rng.Intn(4)),
		Index:   int32(rng.Intn(50)),
	}
}

// sumEntries walks the LRU list and cross-checks it against the index.
func sumEntries(t *testing.T, c *cache) float64 {
	t.Helper()
	var used float64
	n := 0
	prev := nilEnt
	for e := c.head; e != nilEnt; e = c.ent[e].next {
		ent := &c.ent[e]
		if ent.prev != prev {
			t.Fatalf("LRU list corrupt: entry %d has prev %d, want %d", e, ent.prev, prev)
		}
		if got, ok := c.idx[ent.key]; !ok || got != e {
			t.Fatalf("index out of sync for %#x: got (%d,%v), want %d", ent.key, got, ok, e)
		}
		used += ent.size
		n++
		prev = e
	}
	if c.tail != prev {
		t.Fatalf("tail = %d, want %d", c.tail, prev)
	}
	if n != len(c.idx) {
		t.Fatalf("list has %d entries, index has %d", n, len(c.idx))
	}
	return used
}

// TestCacheCapacityNeverExceeded: property test — under a random
// admit/lookup/expiry stream, used bytes never exceed the capacity and
// always equal the sum of resident entry sizes.
func TestCacheCapacityNeverExceeded(t *testing.T) {
	for _, capBytes := range []float64{100, 1000, 5000} {
		rng := rand.New(rand.NewSource(42))
		c := newCache(capBytes, 30)
		now := 0.0
		for i := 0; i < 5000; i++ {
			now += rng.Float64() * 2
			obj := randObj(rng)
			size := 1 + rng.Float64()*float64(rng.Intn(200))
			if rng.Intn(3) == 0 {
				c.lookup(now, obj)
			} else {
				c.admit(now, obj, size)
			}
			if c.used > capBytes+1e-9 {
				t.Fatalf("cap %.0f: used %.1f exceeds capacity after %d ops", capBytes, c.used, i+1)
			}
			if want := sumEntries(t, c); c.used-want > 1e-6 || want-c.used > 1e-6 {
				t.Fatalf("cap %.0f: used %.6f != entry sum %.6f", capBytes, c.used, want)
			}
		}
	}
}

// TestCacheOversizeRejected: an object larger than the whole capacity
// is never admitted (and evicts nothing).
func TestCacheOversizeRejected(t *testing.T) {
	c := newCache(100, 0)
	c.admit(0, Object{Index: 1}, 60)
	c.admit(0, Object{Index: 2}, 500)
	if c.lookup(1, Object{Index: 2}) {
		t.Fatal("oversize object was admitted")
	}
	if !c.lookup(1, Object{Index: 1}) {
		t.Fatal("oversize reject evicted a resident object")
	}
}

// TestCacheTTLBoundary: an entry admitted at t expires at exactly
// t+ttl — a lookup an instant before hits, a lookup at the boundary
// misses.
func TestCacheTTLBoundary(t *testing.T) {
	c := newCache(0, 10)
	obj := Object{Catalog: 1, Index: 7}
	c.admit(100, obj, 50)
	if !c.lookup(110-1e-9, obj) {
		t.Fatal("lookup just inside the TTL missed")
	}
	if c.lookup(110, obj) {
		t.Fatal("lookup at exactly now == expire hit; expiry must be strict")
	}
	if _, ok := c.idx[obj.key()]; ok {
		t.Fatal("expired entry not removed on lookup")
	}
	// Re-admission refreshes the clock.
	c.admit(200, obj, 50)
	if !c.lookup(209.999, obj) {
		t.Fatal("re-admitted entry missing before its new expiry")
	}
}

// TestCacheNoTTL: ttl <= 0 means entries never expire.
func TestCacheNoTTL(t *testing.T) {
	c := newCache(0, 0)
	c.admit(0, Object{Index: 3}, 10)
	if !c.lookup(1e12, Object{Index: 3}) {
		t.Fatal("entry expired with ttl disabled")
	}
}

// TestCacheLRUDeterminism: identical request streams produce identical
// hit/miss sequences and identical final cache contents — eviction
// order is a pure function of the stream.
func TestCacheLRUDeterminism(t *testing.T) {
	run := func() (hits []bool, final []uint64) {
		rng := rand.New(rand.NewSource(7))
		c := newCache(2000, 25)
		now := 0.0
		for i := 0; i < 3000; i++ {
			now += rng.Float64()
			obj := randObj(rng)
			size := 1 + rng.Float64()*100
			if c.lookup(now, obj) {
				hits = append(hits, true)
			} else {
				hits = append(hits, false)
				c.admit(now, obj, size)
			}
		}
		return hits, lruKeys(c)
	}
	h1, f1 := run()
	h2, f2 := run()
	if len(h1) != len(h2) || len(f1) != len(f2) {
		t.Fatalf("stream lengths diverged: %d/%d hits, %d/%d entries", len(h1), len(h2), len(f1), len(f2))
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("hit/miss diverged at request %d", i)
		}
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("LRU order diverged at position %d: %v vs %v", i, f1[i], f2[i])
		}
	}
}

// TestCacheLRUEvictionOrder: filling past capacity evicts the least
// recently used entry first, and a lookup refreshes recency.
func TestCacheLRUEvictionOrder(t *testing.T) {
	c := newCache(30, 0)
	a, b, d := Object{Index: 1}, Object{Index: 2}, Object{Index: 3}
	c.admit(0, a, 10)
	c.admit(1, b, 10)
	c.admit(2, d, 10)
	c.lookup(3, a) // refresh a: b becomes the LRU victim
	c.admit(4, Object{Index: 4}, 10)
	if c.lookup(5, b) {
		t.Fatal("LRU victim b still resident")
	}
	if !c.lookup(5, a) || !c.lookup(5, d) {
		t.Fatal("recency refresh evicted the wrong entry")
	}
}

// TestCacheSteadyStateZeroAlloc: once the entry slab and the index have
// reached their working-set size, the lookup/admit/evict cycle must not
// allocate — evicted entries recycle through the free list and map keys
// reuse existing buckets. This is the contract behind the hotpath
// annotations and bench/'s cdn.resolve_allocs probe.
func TestCacheSteadyStateZeroAlloc(t *testing.T) {
	c := newCache(400, 50)
	objs := make([]Object, 64)
	for i := range objs {
		objs[i] = Object{Track: int32(i % 4), Index: int32(i)}
	}
	now := 0.0
	step := func() {
		for _, obj := range objs {
			now += 0.25
			if !c.lookup(now, obj) {
				c.admit(now, obj, 25)
			}
		}
	}
	step() // warm: every key has been resident at least once
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("steady-state cache cycle allocates %.1f per run", allocs)
	}
}

// TestCacheDrop: a dropped cache is empty and fully reusable.
func TestCacheDrop(t *testing.T) {
	c := newCache(1000, 0)
	for i := 0; i < 20; i++ {
		c.admit(0, Object{Index: int32(i)}, 10)
	}
	c.drop()
	if c.used != 0 || len(c.idx) != 0 || c.head != nilEnt || c.tail != nilEnt {
		t.Fatalf("drop left state: used %.0f, %d entries", c.used, len(c.idx))
	}
	for i := 0; i < 20; i++ {
		c.admit(1, Object{Index: int32(i)}, 10)
		if !c.lookup(1, Object{Index: int32(i)}) {
			t.Fatalf("post-drop admit %d not resident", i)
		}
	}
	if got := sumEntries(t, c); got != c.used {
		t.Fatalf("post-drop accounting: used %.0f, entries %.0f", c.used, got)
	}
}

// TestObjectKey: the packed key keeps every in-range object distinct —
// the corners of each field against its neighbours — and an object a
// field cannot hold panics naming the field, never aliases.
func TestObjectKey(t *testing.T) {
	corners := []Object{
		{},
		{Index: maxIndex - 1},
		{Track: 1},
		{Track: maxTrack - 1, Index: maxIndex - 1},
		{Kind: KindAudio},
		{Kind: KindAudio, Track: maxTrack - 1, Index: maxIndex - 1},
		{Catalog: 1},
		{Catalog: maxCatalog - 1, Kind: KindAudio, Track: maxTrack - 1, Index: maxIndex - 1},
	}
	c := newCache(0, 0)
	for i, obj := range corners {
		if c.lookup(0, obj) {
			t.Fatalf("%+v aliases one of %+v", obj, corners[:i])
		}
		c.admit(0, obj, 1)
	}
	for _, tc := range []struct {
		obj  Object
		want string
	}{
		{Object{Catalog: -1}, "cdn: object {Catalog:-1 Kind:0 Track:0 Index:0}: Catalog out of range [0, 65536)"},
		{Object{Catalog: 1 << 16, Index: 3}, "cdn: object {Catalog:65536 Kind:0 Track:0 Index:3}: Catalog out of range [0, 65536)"},
		{Object{Kind: 2}, "cdn: object {Catalog:0 Kind:2 Track:0 Index:0}: Kind out of range [0, 2)"},
		{Object{Track: 1 << 16}, "cdn: object {Catalog:0 Kind:0 Track:65536 Index:0}: Track out of range [0, 65536)"},
		{Object{Track: -7}, "cdn: object {Catalog:0 Kind:0 Track:-7 Index:0}: Track out of range [0, 65536)"},
		{Object{Index: 1 << 24}, "cdn: object {Catalog:0 Kind:0 Track:0 Index:16777216}: Index out of range [0, 16777216)"},
		{Object{Index: -1}, "cdn: object {Catalog:0 Kind:0 Track:0 Index:-1}: Index out of range [0, 16777216)"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("%+v: panic %v, want %q", tc.obj, got, tc.want)
				}
			}()
			c.admit(0, tc.obj, 1)
		}()
	}
}

package cdn

// cache is a segment-granular LRU cache with a byte capacity and a
// virtual-time TTL. It backs both edge nodes and metro caches. All
// state lives in an index map plus a flat entry slab threaded with an
// intrusive doubly-linked LRU list and a free list — steady-state
// lookups and admits allocate nothing (map writes reuse deleted
// buckets, slab growth amortizes to the warm set size), and no map is
// ever iterated, so behavior is a pure function of the request stream.
// The index is keyed by the object's packed word (Object.key), which the
// runtime hashes on its 64-bit fast path. drop keeps the map's buckets
// and the slab's capacity, so a recycled cache refills into the memory
// its last user grew.
type cache struct {
	idx  map[uint64]int32
	ent  []entry
	free int32 // head of free list through entry.next; -1 empty

	head, tail int32 // LRU list: head = most recent, tail = eviction victim

	cap  float64 // byte capacity; <= 0 unlimited
	ttl  float64 // seconds; <= 0 never expires
	used float64
}

type entry struct {
	key        uint64
	size       float64
	expire     float64 // virtual time at which the object goes stale
	prev, next int32
}

const nilEnt = int32(-1)

func newCache(capBytes, ttlSec float64) *cache {
	c := &cache{idx: make(map[uint64]int32), cap: capBytes, ttl: ttlSec}
	c.drop()
	return c
}

// lookup reports whether obj is cached and fresh at virtual time now,
// promoting it to most-recently-used on a hit. An entry expires at
// exactly now == expire (strict: a lookup at the boundary misses).
//
//vodlint:hotpath
func (c *cache) lookup(now float64, obj Object) bool {
	e, ok := c.idx[obj.key()]
	if !ok {
		return false
	}
	if c.ttl > 0 && now >= c.ent[e].expire {
		c.remove(e)
		return false
	}
	c.touch(e)
	return true
}

// admit inserts obj after a miss, evicting from the LRU tail until it
// fits. Objects larger than the capacity are rejected outright; the
// byte cap is never exceeded. Re-admitting a present object refreshes
// its TTL and recency.
//
//vodlint:hotpath
func (c *cache) admit(now float64, obj Object, size float64) {
	if c.cap > 0 && size > c.cap {
		return
	}
	key := obj.key()
	if e, ok := c.idx[key]; ok {
		// Refresh in place; size is immutable per object.
		c.ent[e].expire = now + c.ttl
		c.touch(e)
		return
	}
	if c.cap > 0 {
		for c.used+size > c.cap && c.tail != nilEnt {
			c.remove(c.tail)
		}
	}
	e := c.alloc()
	ent := &c.ent[e]
	ent.key, ent.size, ent.expire = key, size, now+c.ttl
	ent.prev, ent.next = nilEnt, c.head
	if c.head != nilEnt {
		c.ent[c.head].prev = e
	}
	c.head = e
	if c.tail == nilEnt {
		c.tail = e
	}
	c.idx[key] = e
	c.used += size
}

// touch moves e to the head of the LRU list.
//
//vodlint:hotpath
func (c *cache) touch(e int32) {
	if c.head == e {
		return
	}
	ent := &c.ent[e]
	c.ent[ent.prev].next = ent.next
	if ent.next != nilEnt {
		c.ent[ent.next].prev = ent.prev
	} else {
		c.tail = ent.prev
	}
	ent.prev, ent.next = nilEnt, c.head
	c.ent[c.head].prev = e
	c.head = e
}

// remove unlinks e from the LRU list and index and returns its slot
// to the free list.
//
//vodlint:hotpath
func (c *cache) remove(e int32) {
	ent := &c.ent[e]
	if ent.prev != nilEnt {
		c.ent[ent.prev].next = ent.next
	} else {
		c.head = ent.next
	}
	if ent.next != nilEnt {
		c.ent[ent.next].prev = ent.prev
	} else {
		c.tail = ent.prev
	}
	c.used -= ent.size
	delete(c.idx, ent.key)
	ent.next = c.free
	c.free = e
}

//vodlint:hotpath
func (c *cache) alloc() int32 {
	if e := c.free; e != nilEnt {
		c.free = c.ent[e].next
		return e
	}
	c.ent = append(c.ent, entry{})
	return int32(len(c.ent) - 1)
}

// drop empties the cache (node failure: all content lost; a recycled
// tier: the state newCache returns). The index keeps its buckets and the
// slab its capacity.
func (c *cache) drop() {
	clear(c.idx)
	c.ent = c.ent[:0]
	c.free, c.head, c.tail = nilEnt, nilEnt, nilEnt
	c.used = 0
}

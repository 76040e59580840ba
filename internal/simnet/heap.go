package simnet

import "math"

// fheap is an indexed binary min-heap with float64 keys. The payload's
// current heap position is written back through set on every move, so a
// holder can Remove or Fix an element in O(log n) without searching; a
// position of -1 means "not in this heap". A max-heap is the same
// structure fed negated keys.
//
// The event engines keep every per-flow future state change in one of
// these heaps (pending first bytes, slow-start doublings, capped and
// uncapped completions), which is what turns the per-event O(F) scans
// of the reference formulation into O(log F).
type fheap[T any] struct {
	key []float64
	val []*T
	set func(*T, int)
}

func (h *fheap[T]) Len() int { return len(h.key) }

// MinKey returns the smallest key, or +Inf when empty, so callers can
// fold it into a next-event minimum without a length check.
func (h *fheap[T]) MinKey() float64 {
	if len(h.key) == 0 {
		return math.Inf(1)
	}
	return h.key[0]
}

// Min returns the payload with the smallest key (nil when empty).
func (h *fheap[T]) Min() *T {
	if len(h.val) == 0 {
		return nil
	}
	return h.val[0]
}

// Push inserts v with key k.
func (h *fheap[T]) Push(v *T, k float64) {
	h.key = append(h.key, k)
	h.val = append(h.val, v)
	h.set(v, len(h.key)-1)
	h.up(len(h.key) - 1)
}

// Pop removes and returns the payload with the smallest key.
func (h *fheap[T]) Pop() *T {
	v := h.val[0]
	h.swapOut(0)
	return v
}

// Remove drops the element at position i (the payload's written-back
// index). Callers validate membership (i >= 0) before the call.
func (h *fheap[T]) Remove(i int) { h.swapOut(i) }

// Fix updates the key of the element at position i and restores heap
// order.
func (h *fheap[T]) Fix(i int, k float64) {
	h.key[i] = k
	if !h.up(i) {
		h.down(i)
	}
}

// clear empties the heap, resetting every payload's position.
func (h *fheap[T]) clear() {
	for i, v := range h.val {
		h.set(v, -1)
		h.val[i] = nil
	}
	h.key = h.key[:0]
	h.val = h.val[:0]
}

// emptied is the heap with nothing in it, its arrays and set kept; unlike
// clear it leaves the payloads' positions alone (they are being dropped).
func (h *fheap[T]) emptied() fheap[T] {
	return fheap[T]{key: h.key[:0], val: cleared(h.val), set: h.set}
}

func (h *fheap[T]) swapOut(i int) {
	last := len(h.key) - 1
	h.set(h.val[i], -1)
	if i != last {
		h.key[i] = h.key[last]
		h.val[i] = h.val[last]
		h.set(h.val[i], i)
	}
	h.key = h.key[:last]
	h.val[last] = nil
	h.val = h.val[:last]
	if i != last {
		if !h.up(i) {
			h.down(i)
		}
	}
}

// up sifts position i toward the root; it reports whether i moved.
func (h *fheap[T]) up(i int) bool {
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if h.key[p] <= h.key[i] {
			break
		}
		h.swap(p, i)
		i = p
		moved = true
	}
	return moved
}

func (h *fheap[T]) down(i int) {
	n := len(h.key)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.key[r] < h.key[l] {
			m = r
		}
		if h.key[i] <= h.key[m] {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *fheap[T]) swap(i, j int) {
	h.key[i], h.key[j] = h.key[j], h.key[i]
	h.val[i], h.val[j] = h.val[j], h.val[i]
	h.set(h.val[i], i)
	h.set(h.val[j], j)
}

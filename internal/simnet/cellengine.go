package simnet

import "math"

// The anchored loop: Step's regime below vtimeEnter flowing transfers.
//
// A fleet cell is many mostly-idle clients behind one constant-capacity
// edge link, each throttled by its own 1 Hz cellular access trace; the
// paper harness is a dozen flows on one trace. Both are O(F)-per-event
// territory, and the loop keeps the per-event constant small:
//
//   - Flow progress is anchored: each flowing transfer carries
//     (remaining-at-anchor, anchor time aT, rate, finish time finishT)
//     and is materialized only when its own rate actually changes, on
//     abandonment, or at completion — where the exact residual is folded
//     so per-flow conservation is precise to the last bit. Between
//     rate changes, any number of skipped boundaries collapse into a
//     single rate·Δt multiply.
//
//   - Wake-ups use netem's NextChange instead of NextBoundary, and the
//     next-change instant is cached per link (l.nextChg), across links
//     (n.linksNextChg) and for the edge (n.edgeNextChg), so the
//     steady-state event does one float compare instead of two cursor
//     walks per link. A sample boundary where the profile value does
//     not change generates no event; the fleet's constant edge profile
//     contributes no events at all, and an idle cell advances straight
//     to its next arrival.
//
//   - Each flowing transfer caches its effective cap (tr.cap), and the
//     loop tracks exactly which caps changed since the last rate
//     assignment (n.dirtyFlows). An event that changed nothing does no
//     allocation work at all; an event that changed some caps — a trace
//     sample flip, a window doubling, a flow arriving at or leaving a
//     shared access link — re-rates only the changed flows while every
//     flow is cap-bound below the edge capacity (rates are independent
//     in that regime: rate_i = cap_i, so arrivals and departures leave
//     the other links' flows untouched); only a capacity change or
//     leaving the all-capped regime reruns the full water-filling
//     (waterfill).
//
//   - Slow-start doublings are applied lazily. A doubling only matters
//     when the window is the flow's binding constraint (capBps <= cap);
//     a link- or static-bound connection generates no doubling events —
//     its window is synced forward in one loop whenever its cap is next
//     recomputed, and fully at completion: the doubling schedule is a
//     pure function of time.
//
//   - The event loop is fluid: cellStepOnce consumes rate-boundary
//     events (trace flips, doublings, arrivals) internally and only
//     returns to Step on a completion batch, the deadline, or the
//     flow-count hand-off to the virtual-time loop (hotspot cells).

// double applies one slow-start window doubling; a window past steadyCap
// can never bind again and stops generating doublings.
//
//vodlint:hotpath — window step: a few per connection ramp
func (c *Conn) double() {
	c.capBps *= 2
	c.nextGrow += c.net.cfg.RTT
	if c.capBps >= c.net.steadyCap {
		c.capBps = math.Inf(1)
	}
}

// syncGrow applies every window doubling due at or before now. The
// doubling schedule is a pure function of time (nextGrow + k·RTT until
// steadyCap), so applying it lazily is exact.
//
//vodlint:hotpath — window sync: a few iterations, only when a cap is recomputed
func (c *Conn) syncGrow(now float64) {
	for c.nextGrow <= now && c.InSlowStart() {
		c.double()
	}
}

// syncGrowBefore applies the doublings strictly before t. Completion
// uses it: a doubling scheduled exactly at the completion instant
// belongs to the next request, not to the flow that just left.
func (c *Conn) syncGrowBefore(t float64) {
	for c.nextGrow < t && c.InSlowStart() {
		c.double()
	}
}

// cellMaterialize folds a flow's anchored progress into `remaining` and
// the delivered total, and re-anchors it at the current instant.
//
//vodlint:hotpath — per-flow fold: runs once per rate change, not per event
func (n *Network) cellMaterialize(tr *Transfer) {
	if dt := n.now - tr.aT; dt > 0 {
		d := tr.rate * dt
		if d > tr.remaining {
			d = tr.remaining
		}
		tr.remaining -= d
		n.delivered += d
	}
	tr.aT = n.now
}

// cellRecompute refreshes one flow's cached effective cap (the caller
// has already synced the window) and queues the flow for re-rating if
// the cap actually changed.
//
//vodlint:hotpath — cap memo refresh: runs per affected flow per cap change
func (n *Network) cellRecompute(tr *Transfer) {
	if c := tr.Conn.effCap(); c != tr.cap { //vodlint:allow floateq — memo invalidation on a stored, never-recomputed cap value
		n.cellCapSub(tr.cap)
		n.cellCapAdd(c)
		tr.cap = c
		n.dirtyFlows = append(n.dirtyFlows, tr)
	}
}

// cellCapAdd and cellCapSub keep the running cap sum and the uncapped
// count in step with every cached-cap write, so the all-capped gate is
// O(1) instead of a scan per re-rate event.
//
//vodlint:hotpath — cap-sum bookkeeping: two ops per cap change
func (n *Network) cellCapAdd(c float64) {
	if math.IsInf(c, 1) {
		n.numUncapped++
	} else {
		n.capSum += c
	}
}

//vodlint:hotpath — cap-sum bookkeeping: two ops per cap change
func (n *Network) cellCapSub(c float64) {
	if math.IsInf(c, 1) {
		n.numUncapped--
	} else {
		n.capSum -= c
	}
}

// cellCappedFast is the O(1) all-capped gate over the running sum. The
// running sum drifts from the exact flowing-order sum only by float
// accumulation dust (and every full realloc resets it), so away from
// the capacity boundary it decides exactly as the scan would; within a
// ±0.1% band of the boundary it defers to the exact scan.
//
//vodlint:hotpath — fast-path gate: O(1) per cap change
func (n *Network) cellCappedFast() bool {
	if n.numUncapped != 0 {
		return false
	}
	c := n.lastCapacity
	if n.capSum <= 0.999*c {
		return true
	}
	if n.capSum > 1.001*c {
		return false
	}
	return n.cellAllCapped()
}

// cellTouchLink refreshes the cached caps of every flow on tr's access
// link and on its upstream link (windows synced first), queueing the
// changed ones for re-rating. insertFlowing and removeFlowing call it:
// a flow joining or leaving a link changes its siblings' even shares —
// and nothing else, in the all-capped regime. A linkless flow only
// touches itself. A flow carried by both lists of a touched link is
// recomputed twice; the second pass sees an unchanged cap and is a
// no-op.
//
//vodlint:hotpath — flow-set change: runs once per transfer arrival/departure
func (n *Network) cellTouchLink(tr *Transfer) {
	al, ul := tr.Conn.access, tr.upstream
	if al == nil && ul == nil {
		if tr.pos >= 0 {
			tr.Conn.syncGrow(n.now)
			n.cellRecompute(tr)
		}
		return
	}
	if al != nil {
		n.cellTouchMembers(al)
	}
	if ul != nil && ul != al {
		n.cellTouchMembers(ul)
	}
}

//vodlint:hotpath — flow-set change: one pass over a touched link's flows
func (n *Network) cellTouchMembers(l *AccessLink) {
	for _, m := range l.members {
		m.Conn.syncGrow(n.now)
		n.cellRecompute(m)
	}
	for _, m := range l.upMembers {
		m.Conn.syncGrow(n.now)
		n.cellRecompute(m)
	}
}

// cellFinish refreshes one flow's precomputed completion instant under
// its current rate.
//
//vodlint:hotpath — finish-time refresh: runs once per flow per rate change
func (n *Network) cellFinish(tr *Transfer) {
	const epsBytes = 1e-6
	switch {
	case tr.remaining <= epsBytes:
		tr.finishT = n.now
	case tr.rate > 0:
		tr.finishT = n.now + tr.remaining/tr.rate
	default:
		tr.finishT = math.Inf(1)
	}
}

// cellAllCapped reports whether every flowing transfer is capped with
// the caps summing below the edge capacity — the regime where max-min
// assigns every flow exactly its cap. The sum is recomputed in flowing
// order each time so the gate never drifts from what a full realloc
// would decide.
//
//vodlint:hotpath — fast-path gate: one add per flow per cap change
func (n *Network) cellAllCapped() bool {
	sum := 0.0
	for _, tr := range n.flowing {
		if math.IsInf(tr.cap, 1) {
			return false
		}
		sum += tr.cap
	}
	return sum <= n.lastCapacity
}

// cellReallocFull re-anchors every flowing transfer at n.now, syncs the
// windows, recomputes every cached cap in one pass, reruns the max-min
// rate assignment under the current capacity, and refreshes each flow's
// completion instant.
//
//vodlint:hotpath — anchored-loop water-filling: runs on capacity changes and regime shifts
func (n *Network) cellReallocFull() {
	now := n.now
	sum := 0.0
	uncapped := 0
	for _, tr := range n.flowing {
		c := tr.Conn
		if c.nextGrow <= now && !math.IsInf(c.capBps, 1) {
			c.syncGrow(now)
		}
		cp := c.effCap()
		tr.cap = cp
		if math.IsInf(cp, 1) {
			uncapped++
		} else {
			sum += cp
		}
		n.cellMaterialize(tr)
	}
	n.capSum, n.numUncapped = sum, uncapped
	allCapped := uncapped == 0
	// Fast path: every connection capped (slow start, static cap, or an
	// access-link share) with the caps summing below the edge capacity —
	// the cell steady state, where access links are the bottleneck.
	// Progressive water-filling assigns ascending caps before shares ever
	// bind (cap_k ≤ Σcaps/N_k ≤ remaining/N_k by induction), so every
	// flow gets exactly its cap and no sort is needed.
	if allCapped && sum <= n.lastCapacity {
		for _, tr := range n.flowing {
			tr.rate = tr.cap
		}
		n.ratesAreCaps = true
	} else {
		n.waterfill(n.lastCapacity)
		n.ratesAreCaps = false
	}
	for _, tr := range n.flowing {
		n.cellFinish(tr)
	}
}

// cellStepOnce advances the anchored loop and returns the next
// completion batch (nil when the hand-off to the virtual-time loop or
// `until` arrived first). Rate-boundary events — trace sample flips,
// binding window doublings, transfer arrivals — are consumed inside the
// loop; profile boundaries that change no value and doublings of windows
// that are not their flow's binding constraint are not events at all.
//
//vodlint:hotpath — anchored-loop event core: runs once per event across million-session fleets
func (n *Network) cellStepOnce(until float64) []*Transfer {
	for {
		// Yield to Step at the flow-count hand-off threshold: the
		// virtual-time loop takes over after the promoting event was
		// processed here, before the next one.
		if len(n.flowing) >= n.vtimeEnter {
			return nil
		}
		n.promote()
		now := n.now

		// Refresh access-link samples whose cached change instant has
		// arrived, gated by the cached minimum across links. All reads
		// happen at n.now and each link is visited exactly once, so the
		// refresh is order-independent; a changed sample value recomputes
		// the member flows' caps (windows synced first).
		if now >= n.linksNextChg {
			next := math.Inf(1)
			for _, l := range n.links {
				if now >= l.nextChg {
					r, nxt := l.cursor.ValueNext(now)
					// Exact comparison on purpose: an unchanged piecewise-
					// constant sample means the memoized rates are still
					// valid; any real profile change flips the sample value
					// exactly.
					if r != l.rateBps { //vodlint:allow floateq — memo invalidation on a stored, never-recomputed sample value
						l.rateBps = r
						if !n.cellDirty {
							n.cellTouchMembers(l)
						}
					}
					l.nextChg = nxt
				}
				if l.nextChg < next {
					next = l.nextChg
				}
			}
			n.linksNextChg = next
		}

		// Apply due window doublings that can change a cap: only a window
		// that is its flow's binding constraint (capBps <= cap) generates
		// wake-ups; every other window syncs lazily. Skipped entirely
		// when a full realloc is already scheduled — it syncs and
		// recomputes everything.
		if !n.cellDirty {
			for _, tr := range n.flowing {
				c := tr.Conn
				if c.nextGrow <= now && !math.IsInf(c.capBps, 1) && c.capBps <= tr.cap {
					c.syncGrow(now)
					n.cellRecompute(tr)
				}
			}
		}

		// Edge capacity, through the same cached change instant scheme.
		// The fleet's constant edge never fires this after the first
		// event.
		if now >= n.edgeNextChg {
			v, nxt := n.cursor.ValueNext(now)
			// Exact comparison on purpose: an unchanged piecewise-constant
			// capacity yields bit-identical rates.
			if c := v / 8; c != n.lastCapacity { //vodlint:allow floateq — memo invalidation on a stored, never-recomputed sample value
				n.lastCapacity = c
				n.cellDirty = true
			}
			n.edgeNextChg = nxt
		}

		// Idle cell: advance straight to the next arrival (or the
		// deadline). Dirty state survives to the event where flows exist
		// again.
		if len(n.flowing) == 0 {
			next := until
			if k := n.pendHeap.MinKey(); k < next {
				next = k
			}
			n.now = next
			if next >= until {
				return nil
			}
			continue
		}

		// Re-rate: full water-filling when the capacity changed or the
		// last assignment was not cap-exact; cap-only re-rating of just
		// the changed flows while every flow is cap-bound under the
		// capacity (their rates are independent there); nothing at all
		// when nothing changed — anchors, rates and finish times all
		// stay valid.
		switch {
		case n.cellDirty:
			n.cellReallocFull()
			n.cellDirty = false
			n.dirtyFlows = n.dirtyFlows[:0]
		case len(n.dirtyFlows) > 0:
			if n.ratesAreCaps && n.cellCappedFast() {
				for _, tr := range n.dirtyFlows {
					if tr.pos < 0 {
						// Left the flowing set after being queued. A transfer
						// recycled since then and issued again is pending, or
						// flowing and queued a second time by insertFlowing;
						// re-rating it twice is idempotent.
						continue
					}
					n.cellMaterialize(tr)
					tr.rate = tr.cap
					n.cellFinish(tr)
				}
			} else {
				n.cellReallocFull()
			}
			n.dirtyFlows = n.dirtyFlows[:0]
		}

		// Next event bound: the deadline, a pending transfer's first
		// byte, a binding window doubling, a precomputed completion, a
		// cached link change, or a cached edge change.
		next := until
		if k := n.pendHeap.MinKey(); k < next {
			next = k
		}
		for _, tr := range n.flowing {
			c := tr.Conn
			if c.nextGrow < next && !math.IsInf(c.capBps, 1) && c.capBps <= tr.cap {
				next = c.nextGrow
			}
			if tr.finishT < next {
				next = tr.finishT
			}
		}
		if n.linksNextChg < next {
			next = n.linksNextChg
		}
		if n.edgeNextChg < next {
			next = n.edgeNextChg
		}

		tEvent := next
		if tEvent <= now {
			// Degenerate interval (floating point); nudge forward.
			tEvent = math.Nextafter(now, math.Inf(1))
		}

		completed := n.completed[:0]
		for _, tr := range n.flowing {
			if tr.finishT <= tEvent {
				// Fold the exact residual: per-flow delivery sums to Size
				// precisely, with no epsilon dust left behind.
				n.delivered += tr.remaining
				tr.remaining = 0
				tr.Done = true
				tr.Completed = tEvent
				tr.Conn.syncGrowBefore(tEvent)
				tr.Conn.cur = nil
				tr.Conn.lastActive = tEvent
				completed = append(completed, tr)
			}
		}
		n.now = tEvent
		if len(completed) > 0 {
			n.completed = completed
			for _, tr := range completed {
				n.removeFlowing(tr)
			}
			return completed
		}
		if tEvent >= until {
			return nil
		}
	}
}

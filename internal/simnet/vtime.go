package simnet

import (
	"cmp"
	"math"
	"slices"
)

// The virtual-service-time loop (GPS / fair-queuing style): Step's regime
// at vtimeEnter flowing transfers and above.
//
// The anchored loop pays O(F) per event on a busy link: it scans every
// flowing transfer for the next doubling and completion, and a capacity
// change reruns the water-filling. This loop makes each event O(log F)
// by tracking a cumulative equal-share service
// counter V(t) — "bytes served per uncapped flow so far" — whose slope
// s = (C − R)/U re-anchors only when the capacity C, the capped-rate
// sum R, or the uncapped count U changes:
//
//   - An uncapped flow attached at anchor a with r bytes remaining
//     finishes exactly when V reaches a + r, a key that stays valid
//     across every slope change. Uncapped completions therefore pop
//     from a min-heap keyed by finish-V with no per-flow updates.
//   - A capped flow serves at its fixed cap, so its completion is a
//     real wall-clock time in a sibling heap; it re-anchors only when
//     its own cap changes.
//   - Pending first bytes and slow-start doublings each live in a
//     further heap.
//   - Profile samples are not heap events: the loop reads the edge and
//     every active access link on the network's one clock (readSecond),
//     in one pass at the first event of each whole second, the next of
//     which is the only profile event it schedules.
//
// Per-flow progress is never written per event. The flow record is the
// anchored loop's (Transfer.remaining, aT, rate), with aT holding V
// instead of a time for an uncapped flow, and is materialized lazily — on
// completion, removal, cap change, hand-back, or observer read
// (Transfer.Remaining/Rate, Network.Delivered). Unlike the anchored
// loop's fold, the arithmetic here is unclamped: a residual within
// epsBytes of zero, either sign, is folded at completion so a flow's
// total lands exactly on Size. Network.Delivered stays O(1) via
// aggregate anchors: capped flows have collectively delivered
// R·now − Σ capᵢ·anchorᵢ, uncapped flows U·V − Σ anchorᵢ.
//
// The max-min partition (who is capped?) is maintained incrementally:
// only the largest capped cap and the smallest uncapped cap can violate
// it, so a rebalance repeatedly compares the two heap tops against the
// share s. Every move strictly increases s, so each flow moves at most
// once per direction and the loop terminates. An uncapped flow's cap
// matters only once it drops below s, so uncCap keys are lower bounds of
// the caps, not the caps: updateCap lowers a key when the cap falls
// below it and never raises one; only rebalance, finding a top whose key
// is below s but whose cap is not, tightens that key to the exact cap.
// AccessLink.capFloor makes the bound O(1) to keep across a profile
// flip: no uncapped flow on the link is keyed above it, so a new even
// share at or above the floor leaves every member's bound valid and
// touches none. A capped flow serves at its exact cap, so its links hold
// the floor at +Inf and re-key their members on every flip.
//
// The loop agrees with the anchored one up to float accumulation order
// (uncapped shares are s exactly instead of the water-filling's
// sequential remainder divisions); the differential fuzz target holds
// both to the tests' reference network with tolerance-bounded completion
// times and exact per-flow byte conservation.

// Transfer.vClass values.
const (
	vNone uint8 = iota // not attached to the vtime loop
	vUnc               // uncapped: serves at the shared slope
	vCapd              // capped: serves at its own rate, its exact cap
)

// vtimeState carries the engine's anchors, aggregates and event heaps
// (the pending heap, the profile clock and the edge rate C live on
// Network).
type vtimeState struct {
	vNow  float64 // cumulative equal-share service, bytes per uncapped flow
	slope float64 // dV/dt in bytes/s (0 when U == 0 or the link is saturated by caps)

	uncN  int     // uncapped flow count U
	uncAV float64 // Σ aT over uncapped flows
	R     float64 // Σ rate over capped flows
	capRT float64 // Σ rate·aT over capped flows

	uncFin fheap[Transfer] // uncapped flows keyed by finish-V
	uncCap fheap[Transfer] // uncapped flows keyed by a lower bound of their effective cap (min on top)
	capFin fheap[Transfer] // capped flows keyed by real finish time
	capCap fheap[Transfer] // capped flows keyed by negated cap (max on top)
	grow   fheap[Conn]     // slow-start doublings of conns with an attached flow
}

func newVtimeState() *vtimeState {
	v := &vtimeState{} //vodlint:allow hotalloc — one-time lazy engine construction per Network
	fin := func(tr *Transfer, i int) { tr.hFin = i }
	cp := func(tr *Transfer, i int) { tr.hCap = i }
	v.uncFin.set = fin
	v.capFin.set = fin
	v.uncCap.set = cp
	v.capCap.set = cp
	v.grow.set = func(c *Conn, i int) { c.hGrow = i }
	return v
}

// reset returns v to newVtimeState's state, keeping its heaps' arrays.
// The flows it held are not told: Network.Reset has disowned them.
func (v *vtimeState) reset() {
	*v = vtimeState{
		uncFin: v.uncFin.emptied(),
		uncCap: v.uncCap.emptied(),
		capFin: v.capFin.emptied(),
		capCap: v.capCap.emptied(),
		grow:   v.grow.emptied(),
	}
}

// active is the number of flows attached to the engine.
func (v *vtimeState) active() int { return v.uncN + v.capFin.Len() }

// deliveredAt folds the un-materialized service of every attached flow
// into the materialized total in O(1). Exact at quiescence: the dust
// resets in removeUnc/removeCap zero the aggregates whenever a class
// empties, so an idle network reports exactly Network.delivered.
func (v *vtimeState) deliveredAt(n *Network) float64 {
	return n.delivered + (v.R*n.now - v.capRT) + (float64(v.uncN)*v.vNow - v.uncAV)
}

// addUnc attaches tr as an uncapped flow anchored at the current V.
// tr.remaining must be current.
func (v *vtimeState) addUnc(tr *Transfer, cap float64) {
	tr.vClass = vUnc
	tr.aT = v.vNow
	v.uncN++
	v.uncAV += tr.aT
	v.uncFin.Push(tr, tr.aT+tr.remaining)
	v.uncCap.Push(tr, cap)
}

// removeUnc detaches tr from the uncapped class, materializing its
// service since the anchor into Network.delivered and tr.remaining.
func (v *vtimeState) removeUnc(n *Network, tr *Transfer) {
	d := v.vNow - tr.aT
	n.delivered += d
	tr.remaining -= d
	v.uncN--
	v.uncAV -= tr.aT
	v.uncFin.Remove(tr.hFin)
	v.uncCap.Remove(tr.hCap)
	tr.vClass = vNone
	if v.uncN == 0 {
		v.uncAV = 0 // shed float dust so deliveredAt is exact at quiescence
	}
}

// addCap attaches tr as a capped flow at rate cap (finite, by
// construction: rebalance and updateCap route infinite caps to addUnc).
func (v *vtimeState) addCap(n *Network, tr *Transfer, cap float64) {
	tr.vClass = vCapd
	tr.rate = cap
	tr.aT = n.now
	v.R += cap
	v.capRT += cap * tr.aT
	v.capFin.Push(tr, capFinishT(n.now, tr.remaining, cap))
	v.capCap.Push(tr, -cap)
	if l := tr.Conn.access; l != nil {
		l.capFloor = math.Inf(1)
	}
	if l := tr.upstream; l != nil {
		l.capFloor = math.Inf(1)
	}
}

// removeCap is addCap's inverse, materializing service at the cap.
func (v *vtimeState) removeCap(n *Network, tr *Transfer) {
	d := tr.rate * (n.now - tr.aT)
	n.delivered += d
	tr.remaining -= d
	v.R -= tr.rate
	v.capRT -= tr.rate * tr.aT
	v.capFin.Remove(tr.hFin)
	v.capCap.Remove(tr.hCap)
	tr.vClass = vNone
	if v.capFin.Len() == 0 {
		v.R, v.capRT = 0, 0 // shed float dust, as in removeUnc
	}
}

// capFinishT is a capped flow's real completion time. rem/0 and a
// non-positive remainder need explicit handling so the heap key is
// never NaN: a zero-rate flow never finishes, an already-drained one
// finishes now.
func capFinishT(now, rem, cap float64) float64 {
	if rem <= 0 {
		return now
	}
	if cap <= 0 {
		return math.Inf(1)
	}
	return now + rem/cap
}

// updateCap applies a changed effective cap to an attached flow. An
// uncapped flow only lowers its rebalance key when the cap fell below it
// — its service rate is the shared slope either way, and a raised key
// could outrun a link's capFloor — while a capped flow materializes at
// the old rate and re-anchors at the new one.
func (v *vtimeState) updateCap(n *Network, tr *Transfer) {
	cap := tr.Conn.effCap()
	switch tr.vClass {
	case vUnc:
		if cap < v.uncCap.key[tr.hCap] {
			v.uncCap.Fix(tr.hCap, cap)
		}
	case vCapd:
		if cap == tr.rate { //vodlint:allow floateq — skip no-op re-anchors of an unchanged cap
			return
		}
		v.removeCap(n, tr)
		if math.IsInf(cap, 1) {
			v.addUnc(tr, cap)
		} else {
			v.addCap(n, tr, cap)
		}
	}
}

// updateLinkCaps re-keys every flow on l — access-role and
// upstream-role members alike — after its even split changed
// (membership or budget change), and re-bases l.capFloor on the new
// share: every uncapped member is now keyed at or below it.
func (v *vtimeState) updateLinkCaps(n *Network, l *AccessLink) {
	floor := l.share()
	for _, m := range l.members {
		if v.updateCap(n, m); m.vClass == vCapd {
			floor = math.Inf(1)
		}
	}
	for _, m := range l.upMembers {
		if v.updateCap(n, m); m.vClass == vCapd {
			floor = math.Inf(1)
		}
	}
	l.capFloor = floor
}

// rebalance restores the max-min partition after caps, capacity or
// membership changed, then re-derives the slope. Only the heap tops can
// violate the partition: the smallest uncapped cap is the first to fall
// below the share s, the largest capped cap the first to rise above it.
// The uncapped top's key may be a stale lower bound; it is made exact
// before it is trusted, so the flow demoted is the one with the smallest
// true cap and serves at exactly that cap.
// Every demote removes a cap < s from the uncapped pool and every
// promote returns a cap > s to it, so s strictly increases with each
// move, no flow moves twice in the same direction, and the loop
// terminates.
func (v *vtimeState) rebalance(n *Network) {
	for {
		if v.uncN == 0 {
			if v.R <= n.edgeRate || v.capFin.Len() == 0 {
				break
			}
			// All-capped but infeasible (Σ caps > C): the largest cap
			// cannot be served at its cap and must share instead.
			tr := v.capCap.Min()
			v.removeCap(n, tr)
			v.addUnc(tr, tr.Conn.effCap())
			continue
		}
		s := (n.edgeRate - v.R) / float64(v.uncN)
		if k := v.uncCap.MinKey(); k < s {
			tr := v.uncCap.Min()
			if c := tr.Conn.effCap(); c > k {
				// A stale bound, not a binding cap: tighten it — the one
				// place a key rises, so the flow's links' floors rise too.
				v.uncCap.Fix(tr.hCap, c)
				if l := tr.Conn.access; l != nil && l.capFloor < c {
					l.capFloor = c
				}
				if l := tr.upstream; l != nil && l.capFloor < c {
					l.capFloor = c
				}
				continue
			}
			v.removeUnc(n, tr)
			v.addCap(n, tr, k)
			continue
		}
		if v.capFin.Len() > 0 && -v.capCap.MinKey() > s {
			tr := v.capCap.Min()
			v.removeCap(n, tr)
			v.addUnc(tr, tr.Conn.effCap())
			continue
		}
		break
	}
	if v.uncN > 0 {
		s := (n.edgeRate - v.R) / float64(v.uncN)
		if s < 0 {
			s = 0
		}
		v.slope = s
	} else {
		v.slope = 0
	}
}

// vAttach moves a pending transfer into the live flow set as the clock
// reaches its first byte (the vtime counterpart of promote →
// insertFlowing). A link that joins the active set with it has just read
// its sample; its capFloor starts at its share.
func (n *Network) vAttach(tr *Transfer) {
	v := n.v
	n.linkAttach(tr)
	al, ul := tr.Conn.access, tr.upstream
	if al != nil && al.flows == 1 {
		al.capFloor = al.share()
	}
	if ul != nil && ul != al && ul.flows == 1 {
		ul.capFloor = ul.share()
	}
	v.addUnc(tr, tr.Conn.effCap())
	if c := tr.Conn; c.InSlowStart() && c.hGrow < 0 {
		v.grow.Push(c, c.nextGrow)
	}
	if al != nil && al.flows > 1 {
		// The even split changed for every sibling on the link.
		v.updateLinkCaps(n, al)
	}
	if ul != nil && ul != al && ul.flows > 1 {
		v.updateLinkCaps(n, ul)
	}
}

// vDetach removes a no-longer-serving flow's side effects: its conn's
// doubling events, its access-link membership, and its siblings' caps.
// The caller has already detached the flow from its class.
func (n *Network) vDetach(tr *Transfer) {
	v := n.v
	if c := tr.Conn; c.hGrow >= 0 {
		v.grow.Remove(c.hGrow)
	}
	al, ul := tr.Conn.access, tr.upstream
	n.linkDetach(tr)
	if al != nil && al.flows > 0 {
		v.updateLinkCaps(n, al)
	}
	if ul != nil && ul != al && ul.flows > 0 {
		v.updateLinkCaps(n, ul)
	}
}

// abandon drops an attached in-flight transfer (connection close),
// materializing its progress.
func (v *vtimeState) abandon(n *Network, tr *Transfer) {
	switch tr.vClass {
	case vUnc:
		v.removeUnc(n, tr)
	case vCapd:
		v.removeCap(n, tr)
	default:
		return
	}
	if tr.remaining < 0 {
		tr.remaining = 0
	}
	n.vDetach(tr)
	v.rebalance(n)
}

// enterVTime hands the live flows from the anchored loop to the
// virtual-time loop: windows are synced and progress folded, so every
// flow record is current as of now. V restarts at 0; the profile clock
// reads first (the hand-off may land on a new second), every link's
// capFloor starts at its share, so every flowing transfer attaches
// uncapped keyed by its cap as of now, and the first rebalance derives
// the true partition.
func (n *Network) enterVTime() {
	if n.v == nil {
		n.v = newVtimeState()
	}
	v := n.v
	v.vNow = 0
	n.vmode = true
	// The clock reads as this loop's: no flow is keyed yet, so a changed
	// link only moves its floor, which every link re-bases next.
	n.readSecond()
	for _, l := range n.links {
		l.capFloor = l.share()
	}
	for i, tr := range n.flowing {
		c := tr.Conn
		c.syncGrow(n.now)
		n.cellMaterialize(tr)
		tr.pos = -1
		v.addUnc(tr, c.effCap())
		if c.InSlowStart() && c.hGrow < 0 {
			v.grow.Push(c, c.nextGrow)
		}
		n.flowing[i] = nil
	}
	n.flowing = n.flowing[:0]
	v.rebalance(n)
}

// exitVTime hands the flows back: every attached flow materializes its
// remaining bytes, the flowing set is rebuilt in dial order with every
// flow re-anchored at the current instant, and the anchored loop's next
// event recomputes every rate under the samples the profile clock holds.
func (n *Network) exitVTime() {
	v := n.v
	for v.uncFin.Len() > 0 {
		tr := v.uncFin.Min()
		v.removeUnc(n, tr)
		n.flowing = append(n.flowing, tr)
	}
	for v.capFin.Len() > 0 {
		tr := v.capFin.Min()
		v.removeCap(n, tr)
		n.flowing = append(n.flowing, tr)
	}
	v.grow.clear()
	slices.SortFunc(n.flowing, func(a, b *Transfer) int { return cmp.Compare(a.Conn.seq, b.Conn.seq) })
	for i, tr := range n.flowing {
		tr.pos = i
		tr.aT = n.now
		if tr.remaining < 0 {
			tr.remaining = 0
		}
	}
	n.cellDirty = true
	n.vmode = false
}

// vStepOnce advances the virtual-time loop by one event and returns any
// completions: promote pending arrivals, find the next event, advance
// real and virtual time together, then apply completions, doublings and
// the profile clock due at the new time, and rebalance once.
//
//vodlint:hotpath — vtime event: O(log F) per event at high fan-in
func (n *Network) vStepOnce(until float64) []*Transfer {
	const epsBytes = 1e-6
	v := n.v
	dirty := false

	// Promote pending first bytes due now.
	for n.pendHeap.Len() > 0 && n.pendHeap.MinKey() <= n.now {
		n.vAttach(n.pendHeap.Pop())
		dirty = true
	}
	if dirty {
		v.rebalance(n)
		dirty = false
	}

	// Next event: the deadline, a pending first byte, a slow-start
	// doubling, the next whole second, a capped completion, or — through
	// the current slope — the nearest uncapped completion in V.
	next := until
	if k := n.pendHeap.MinKey(); k < next {
		next = k
	}
	if k := v.grow.MinKey(); k < next {
		next = k
	}
	if n.nextSec < next {
		next = n.nextSec
	}
	if k := v.capFin.MinKey(); k < next {
		next = k
	}
	uncT := math.Inf(1)
	if v.uncN > 0 && v.slope > 0 {
		uncT = n.now + (v.uncFin.MinKey()-v.vNow)/v.slope
	}
	if uncT < next {
		next = uncT
	}
	if next <= n.now {
		// Degenerate interval (floating point); nudge forward.
		next = math.Nextafter(n.now, math.Inf(1))
	}

	// Advance real and virtual time together.
	dt := next - n.now
	v.vNow += v.slope * dt
	n.now = next
	if next >= uncT {
		// The event is an uncapped completion: land V exactly on the
		// finish key despite the divide-multiply round trip above.
		if k := v.uncFin.MinKey(); v.vNow < k {
			v.vNow = k
		}
	}

	// Completions due at the new time.
	completed := n.completed[:0]
	for v.uncFin.Len() > 0 && v.uncFin.MinKey() <= v.vNow+epsBytes {
		tr := v.uncFin.Min()
		v.removeUnc(n, tr)
		completed = append(completed, tr)
	}
	for v.capFin.Len() > 0 {
		tr := v.capFin.Min()
		k := v.capFin.MinKey()
		if !(k <= n.now || tr.rate*(k-n.now) <= epsBytes) {
			break
		}
		v.removeCap(n, tr)
		completed = append(completed, tr)
	}
	for _, tr := range completed {
		// The residual is within epsBytes of zero (either sign): folding
		// it into delivered lands the flow's total exactly on Size,
		// keeping byte conservation exact.
		n.delivered += tr.remaining
		tr.remaining = 0
		tr.Done = true
		tr.Completed = n.now
		tr.Conn.cur = nil
		tr.Conn.lastActive = n.now
		n.vDetach(tr)
		dirty = true
	}

	// Slow-start doublings due now.
	for v.grow.Len() > 0 && v.grow.MinKey() <= n.now {
		c := v.grow.Min()
		if c.double(); c.InSlowStart() {
			v.grow.Fix(c.hGrow, c.nextGrow)
		} else {
			v.grow.Remove(c.hGrow)
		}
		if tr := c.cur; tr != nil && tr.vClass != vNone {
			v.updateCap(n, tr)
		}
		dirty = true
	}

	// The profile clock at a new second: one O(K) pass over the active
	// links, re-keying members only where the new share undercuts the
	// link's capFloor.
	if n.readSecond() {
		dirty = true
	}

	if dirty {
		v.rebalance(n)
	}

	// Deterministic dial-order batches, as the anchored loop's
	// flowing-set order gives.
	if len(completed) > 1 {
		for i := 1; i < len(completed); i++ {
			for j := i; j > 0 && completed[j].Conn.seq < completed[j-1].Conn.seq; j-- {
				completed[j], completed[j-1] = completed[j-1], completed[j]
			}
		}
	}
	n.completed = completed
	return completed
}

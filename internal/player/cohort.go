package player

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cdn"
	"repro/internal/netem"
	"repro/internal/simnet"
)

// BackgroundConfig shapes one background flow — a member of a Cohort,
// the coarse analytic session tier of a fleet cell.
type BackgroundConfig struct {
	// Declared is the ladder's declared bitrates in bits/s, ascending.
	Declared []float64
	// SegmentDuration and MediaDuration define the segment grid.
	SegmentDuration float64
	MediaDuration   float64
	// SessionDuration caps wall time, counted from StartAt (default 600).
	SessionDuration float64
	// SafetyFactor scales the throughput estimate before picking the
	// highest sustainable rung (default 0.8, the classic rate-based
	// margin).
	SafetyFactor float64
}

func (c BackgroundConfig) withDefaults() BackgroundConfig {
	if c.SessionDuration <= 0 {
		c.SessionDuration = 600
	}
	if c.SafetyFactor <= 0 {
		c.SafetyFactor = 0.8
	}
	return c
}

// What every background flow shares with the full player's defaults.
const (
	bgStartupBufferSec = 8   // gates first frame and stall recovery
	bgMaxBufferSec     = 60  // downloading pauses at this buffer level
	bgResumeBufferSec  = 50  // and restarts 10 s below it
	bgEWMAAlpha        = 0.3 // throughput filter gain
)

// Cohort is the coarse tier of a fleet cell: session models that skip
// the player state machine — no manifests, no per-request scheduling, no
// buffer index structures — but still move every byte through the shared
// simnet as real transfers via each client's access link, so background
// flows and full sessions shape each other under the same max-min
// water-filling. Playback is fluid: per member, a FIFO of media seconds
// drains at rate 1 while downloads refill it, with an EWMA throughput
// rule standing in for the configured ABR. Output is the same Summary a
// lean full-fidelity session produces, with coarser semantics (segments
// are declared-rate sized, startup/recovery share one buffer gate, no
// pipeline/connection effects).
//
// The cohort is a client model only: Group.Run schedules its members —
// each a group member with id base+index — on the same deadline heap and
// wake list as the full sessions.
//
// Members are independent flows: a member's Summary depends only on its
// own config, start, link and the shared network, never on how members
// are batched. One cohort of N members therefore produces byte-identical
// Summaries to the same members split over any number of cohorts added
// to the same Group in the same order (asserted by the differential
// suite in cohort_test.go): either way they hold the same consecutive
// group ids, and the Group services, advances and completes by id.
//
// Members are appended with Add (each carrying its own
// BackgroundConfig — fleet cells mix service templates and per-viewer
// session durations) before the cohort joins a Group. What is sized by
// the population is the draw alone, 32 bytes a member: start, session
// duration, catalog id, an index into the cohort's interned templates
// (configs that differ only in SessionDuration share one), an index into
// its interned access profiles, and a state word — unarrived, done, or
// the slot the member holds. Everything else is held only while a member
// plays, from its first wake at or after its start to its finish:
//   - a slot: the control state, the Summary accumulators and a
//     time-on-track row as wide as the cohort's widest ladder, the
//     connection, the in-flight transfer and the edge-cache resolver
//     state. Slots are a free stack that grows by doubling to the peak
//     number of members live at once (PeakLive); a taken slot is reset
//     to a fresh member's state, and returned right after the observer
//     has read the member's Summary, so a Summary outlives nothing.
//   - an access link and a connection, from the member's first request;
//     they go back to the network's free lists at its finish with the
//     transfer the connection abandons.
//   - a segment FIFO ring, from the first completed segment; rings are
//     pooled the same way as slots, to the peak number of members
//     buffering at once.
type Cohort struct {
	net *simnet.Network

	// Per-member draw, set by Add and the setters.
	draw []memberDraw

	// Interned configs (tmpls[i] is tmplKeys.keys[i]'s template) and
	// access profiles (profiles.keys).
	tmpls    []cohortTemplate
	tmplKeys interner[tmplKey]
	profiles interner[*netem.Profile]

	// bind hands a member that takes a slot its resolver (nil: origin).
	bind func(m int, r cdn.Resolver) cdn.Resolver

	// Slot s is *slots[s]; free is the stack of slots no member holds,
	// lowest index on top. Slots live in chunks that never move (a
	// transfer's Meta points into one), the first slotQuantum long, each
	// later one as long as all before it; rowW is the width of every
	// slot's time-on-track row, at least the widest ladder.
	slots      []*memberSlot
	free       []int32
	rowW       int
	live, peak int

	// Segment FIFO rings holding up to qCap buffered stretches (the buffer
	// pauses at bgMaxBufferSec, so a ring is small and bounded), chunked
	// and stacked the same way as slots: nRings exist, each ringW ≥ qCap
	// long, and freeRings are the ones no slot holds. A slot holds a ring
	// from its member's first completed segment to its finish. Which ring
	// or slot a member got is invisible outside these fields: both are reset when handed over and
	// every field is written before it is read, so no Summary can depend
	// on their identity or reuse order.
	qCap      int
	ringW     int
	nRings    int
	freeRings [][]ringSlot

	frozen bool

	observer func(int, *Summary)
	scratch  Summary

	// base is member 0's id in the Group run driving the cohort (set by
	// Group.Run); member m is group member base+m.
	base int
}

// memberDraw is what a member is before it plays: fixed by Add and the
// setters, read for the whole run.
type memberDraw struct {
	startAt float64
	dur     float64 // SessionDuration
	tmpl    int32   // index into tmpls
	access  int32   // index into profiles, -1 = no access link
	catalog int32   // title index in the cache namespace
	state   int32   // slot index while live, else stateUnarrived/stateDone
}

// Member states other than a held slot.
const (
	stateUnarrived int32 = -1
	stateDone      int32 = -2
)

// cohortTemplate is one interned config: everything but SessionDuration.
type cohortTemplate struct {
	declared []float64
	segDur   float64
	mediaDur float64
	safety   float64
	segCnt   int32 // ceil(mediaDur/segDur)
}

// tmplKey identifies a template: configs sharing the Declared backing
// array and the scalar fields intern to one entry.
type tmplKey struct {
	declared           *float64
	n                  int
	seg, media, safety float64
}

// interner numbers distinct keys in order of first sight. It scans: a
// fleet cell has a dozen templates and fourteen access traces.
type interner[K comparable] struct {
	keys []K
}

func (in *interner[K]) index(k K) int32 {
	for i, have := range in.keys {
		if have == k {
			return int32(i)
		}
	}
	in.keys = append(in.keys, k)
	return int32(len(in.keys) - 1)
}

// memberSlot is a live member's state; a free slot keeps row and res for
// the next member to reuse.
type memberSlot struct {
	ref      cohortRef // Transfer.Meta of the slot's requests
	row      []float64 // time on track, rowW wide
	conn     *simnet.Conn
	inflight *simnet.Transfer // the one request in flight, nil = none
	res      cdn.Resolver

	lastTime  float64
	playhead  float64 // media played so far: the Summary's PlayedSec
	bufferSec float64
	stallSt   float64 // stall open instant (valid while coStallOpen)
	pendDur   float64
	ewma      float64
	totBytes  float64

	sumStartup  float64
	sumStallSec float64
	sumWeighted float64
	sumMedia    float64

	nextSeg     int32
	samples     int32
	prevTrak    int32
	pendTrak    int32
	sumStallCnt int32
	sumSwitch   int32
	sumNonCons  int32
	flags       uint8 // coStarted..coPausedDl bit field

	fifo memberFIFO
}

// Per-member flag bits.
const (
	coStarted uint8 = 1 << iota
	coPlaying
	coFinished
	coStallOpen
	coPausedDl
)

// ringSlot is one buffered stretch of media: a downloaded segment, or
// what is left of it once playback has begun to consume it.
type ringSlot struct {
	dur     float64
	track   int32
	counted bool // switch accounting done at first consumption
}

// memberFIFO is a member's window onto its ring (nil: none held).
type memberFIFO struct {
	ring    []ringSlot
	head, n int32
}

// ringQuantum and slotQuantum are the first chunk's length, in rings and
// in slots; a chunk never holds more than the members that could use it.
const (
	ringQuantum = 8
	slotQuantum = 8
)

// cohortRef routes a transfer's completion to the member holding the
// slot that started it: it lives in the slot, which never moves, so
// starting a request boxes a pointer (no allocation). idx is re-pointed
// whenever the slot changes hands.
type cohortRef struct {
	c   *Cohort
	idx int
}

// NewCohort starts an empty cohort over the shared network; append
// members with Add, then register it with Group.AddCohort.
func NewCohort(net *simnet.Network) *Cohort {
	return &Cohort{net: net}
}

// Reset puts c into the state NewCohort(net) returns after a whole run,
// keeping memory: its slot and ring chunks and the arrays of its draw
// slab and interned templates. Its members, templates, profiles,
// resolver binding and observer are forgotten; AddCohort derives the
// widths anew, so a slot or ring narrower than the next run needs is
// dropped then. Every member of a whole run has given its slot and ring
// back, and which free one a member takes is invisible, so the free
// stacks stay in the order the run left them.
func (c *Cohort) Reset(net *simnet.Network) {
	clear(c.tmpls)
	clear(c.profiles.keys)
	*c = Cohort{
		net:       net,
		draw:      c.draw[:0],
		tmpls:     c.tmpls[:0],
		tmplKeys:  interner[tmplKey]{keys: c.tmplKeys.keys[:0]},
		profiles:  interner[*netem.Profile]{keys: c.profiles.keys[:0]},
		slots:     c.slots,
		free:      c.free,
		rowW:      c.rowW,
		ringW:     c.ringW,
		nRings:    c.nRings,
		freeRings: c.freeRings,
	}
}

// Grow reserves room for n more members, so the Adds that follow fill
// the draw slab in place instead of doubling their way up to n. (Not
// slices.Grow: under the race detector its append(s, make(…)...) builds
// the made slice too, doubling the slab's cost.)
func (c *Cohort) Grow(n int) {
	if cap(c.draw)-len(c.draw) < n {
		c.draw = append(make([]memberDraw, 0, len(c.draw)+n), c.draw...)
	}
}

// Add appends one member with its own config (zero fields take the
// BackgroundConfig defaults) and returns its index. Call before the
// cohort joins a Group.
func (c *Cohort) Add(cfg BackgroundConfig) int {
	if c.frozen {
		panic("player: Cohort.Add after the cohort joined a group")
	}
	cfg = cfg.withDefaults()
	k := tmplKey{n: len(cfg.Declared), seg: cfg.SegmentDuration, media: cfg.MediaDuration, safety: cfg.SafetyFactor}
	if k.n > 0 {
		k.declared = &cfg.Declared[0]
	}
	t := c.tmplKeys.index(k)
	if int(t) == len(c.tmpls) {
		c.tmpls = append(c.tmpls, cohortTemplate{
			declared: cfg.Declared,
			segDur:   cfg.SegmentDuration,
			mediaDur: cfg.MediaDuration,
			safety:   cfg.SafetyFactor,
			segCnt:   int32(math.Ceil(cfg.MediaDuration / cfg.SegmentDuration)),
		})
	}
	c.draw = append(c.draw, memberDraw{dur: cfg.SessionDuration, tmpl: t, access: -1, state: stateUnarrived})
	return len(c.draw) - 1
}

// Len returns the member count.
func (c *Cohort) Len() int { return len(c.draw) }

// PeakLive returns the most members that held a slot at once so far:
// what the cohort's per-live-member state is sized by.
func (c *Cohort) PeakLive() int { return c.peak }

// SetStartAt schedules member i's arrival on the shared clock; call
// before the group runs.
func (c *Cohort) SetStartAt(i int, t float64) { c.draw[i].startAt = max(t, 0) }

// SetAccessProfile routes member i through a private access link over
// profile p (bits/s, looping). The member takes the link, and its
// connection, from the network at its first request and gives both back
// when it finishes.
func (c *Cohort) SetAccessProfile(i int, p *netem.Profile) {
	c.draw[i].access = -1
	if p != nil {
		c.draw[i].access = c.profiles.index(p)
	}
}

// SetAccessLink is SetAccessProfile(i, l.Profile()); l itself is not used.
// A shim for bench/probes.go, to be deleted with ROADMAP item 1 (f).
func (c *Cohort) SetAccessLink(i int, l *simnet.AccessLink) { c.SetAccessProfile(i, l.Profile()) }

// SetResolvers routes every member's segment requests through a cell's
// edge-cache tier. bind is called as member m takes its slot, with the
// resolver the slot's previous holder used (nil on a fresh slot), and
// returns m's resolver for as long as it plays; it may reset r in place
// and return it, so resolver state is held per live member, not per
// member. A nil result sends m to the origin.
func (c *Cohort) SetResolvers(bind func(m int, r cdn.Resolver) cdn.Resolver) { c.bind = bind }

// SetCatalog names member i's title in the cache namespace (0 unless
// set); the resolver keys member i's segments by it.
func (c *Cohort) SetCatalog(i int, catalog int32) { c.draw[i].catalog = catalog }

// Catalog returns member i's title in the cache namespace.
func (c *Cohort) Catalog(i int) int32 { return c.draw[i].catalog }

// SetObserver registers fn, called exactly once per member as it
// finishes with a scratch Summary valid only for the duration of the
// call (the TimeOnTrack slice aliases the member's slot, which the next
// member to arrive reuses) — fold it, don't retain it. It is the only
// way to read a member's Summary.
func (c *Cohort) SetObserver(fn func(i int, s *Summary)) { c.observer = fn }

// freeze fixes the ring bound and the time-on-track row width from the
// templates and drops the template index (called by AddCohort). Slots and
// rings themselves are taken as members arrive and start buffering; kept
// ones (Reset) too narrow for the new widths are dropped here.
func (c *Cohort) freeze() {
	if c.frozen {
		return
	}
	c.frozen = true
	// Ring bound: a member's buffer pauses at bgMaxBufferSec and one
	// in-flight segment can still land, so at most
	// ceil(bgMaxBufferSec/segDur) full stretches plus a partially-consumed
	// head, the clipped final segment and the just-landed one are ever
	// queued at once. The bound is the maximum over the templates.
	c.qCap = 1
	toW := 0
	for i := range c.tmpls {
		t := &c.tmpls[i]
		cap := int(math.Ceil(bgMaxBufferSec/t.segDur)) + 4
		if sc := int(t.segCnt); cap > sc {
			cap = sc
		}
		c.qCap = max(c.qCap, cap)
		toW = max(toW, len(t.declared))
	}
	if toW > c.rowW {
		clear(c.slots)
		c.slots, c.free, c.rowW = c.slots[:0], c.free[:0], toW
	}
	if c.qCap > c.ringW {
		clear(c.freeRings)
		c.freeRings, c.nRings, c.ringW = c.freeRings[:0], 0, c.qCap
	}
	clear(c.tmplKeys.keys)
	c.tmplKeys.keys = c.tmplKeys.keys[:0]
}

func (c *Cohort) endAt(m int) float64 { return c.draw[m].startAt + c.draw[m].dur }

func (c *Cohort) memberDone(m int) bool { return c.draw[m].state == stateDone }

// slotOf returns member m's slot, taking one if m has arrived but holds
// none yet. A finished member has no slot: asking for one is a bug, and
// panics naming the member rather than aliasing whoever holds its old
// slot now.
func (c *Cohort) slotOf(m int, op string) *memberSlot {
	switch s := c.draw[m].state; {
	case s >= 0:
		return c.slots[s]
	case s == stateUnarrived:
		return c.takeSlot(m)
	}
	panic(fmt.Sprintf("player: cohort member %d %s after it finished: it holds no slot", m, op))
}

// takeSlot gives member m a free slot, growing the slab when none is
// left, and resets it to what a fresh member starts from.
func (c *Cohort) takeSlot(m int) *memberSlot {
	if len(c.free) == 0 {
		c.growSlots()
	}
	s := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.live++
	c.peak = max(c.peak, c.live)
	sl := c.slots[s]
	res := sl.res
	*sl = memberSlot{ref: cohortRef{c: c, idx: m}, row: sl.row, lastTime: c.draw[m].startAt, prevTrak: -1, sumStartup: -1}
	clear(sl.row)
	c.draw[m].state = s
	if c.bind != nil {
		sl.res = c.bind(m, res)
	}
	return sl
}

// growSlots is takeSlot's cold half: it adds a chunk of as many slots as
// exist (slotQuantum at first), never more than the members without one,
// and stacks them, lowest index on top. It runs O(log peak) times per
// cohort.
func (c *Cohort) growSlots() {
	have := len(c.slots)
	add := min(max(have, slotQuantum), len(c.draw)-have)
	chunk := make([]memberSlot, add)    //vodlint:allow hotalloc — slot growth, O(log peak live) times per cohort
	rows := make([]float64, add*c.rowW) //vodlint:allow hotalloc — slot growth, O(log peak live) times per cohort
	c.free = slices.Grow(c.free, have+add)
	for i := add - 1; i >= 0; i-- {
		chunk[i].row = rows[i*c.rowW : (i+1)*c.rowW : (i+1)*c.rowW]
		c.free = append(c.free, int32(have+i))
	}
	for i := range chunk {
		c.slots = append(c.slots, &chunk[i])
	}
}

// inflightSum counts in-flight transfers across live members (the
// Group's defensive no-deadline branch needs the total).
func (c *Cohort) inflightSum() int {
	s := 0
	for _, sl := range c.slots {
		if sl.inflight != nil {
			s++
		}
	}
	return s
}

// service is member m's turn in Group.Run's service pass: park until
// the member has arrived, report finished once it is past its end (or
// played out), else issue requests and return the next deadline.
//
//vodlint:hotpath — cohort service step: once per woken member per iteration
func (c *Cohort) service(m int, now float64) (nextKey float64, finished bool) {
	if st := c.draw[m].startAt; now < st-eps {
		return st, false
	}
	sl := c.slotOf(m, "serviced")
	if now >= c.endAt(m)-eps || sl.flags&coFinished != 0 {
		return 0, true
	}
	c.issueRequests(m, sl)
	d := c.nextDeadline(m, sl, now)
	if e := c.endAt(m); e < d {
		d = e
	}
	return d, false
}

// issueRequests starts member m's next segment download if it is behind
// its buffer target. One request at a time: the coarse tier has no
// pipeline. The rung is the highest one whose declared rate fits under
// SafetyFactor × the EWMA throughput (the bottom rung before the first
// sample); the segment is declared-rate sized.
//
//vodlint:hotpath — cohort request issue: once per serviced member
func (c *Cohort) issueRequests(m int, sl *memberSlot) {
	d := &c.draw[m]
	t := &c.tmpls[d.tmpl]
	if sl.inflight != nil || sl.nextSeg >= t.segCnt {
		return
	}
	if sl.flags&coPausedDl != 0 {
		if sl.bufferSec > bgResumeBufferSec+1e-6 {
			return
		}
		sl.flags &^= coPausedDl
	} else if sl.bufferSec >= bgMaxBufferSec-1e-6 {
		sl.flags |= coPausedDl
		return
	}
	track := 0
	if sl.samples > 0 {
		budget := t.safety * sl.ewma
		for r := len(t.declared) - 1; r > 0; r-- {
			if t.declared[r] <= budget {
				track = r
				break
			}
		}
	}
	dur := t.segDur
	if start := float64(sl.nextSeg) * t.segDur; start+t.segDur > t.mediaDur {
		dur = t.mediaDur - start // the last segment is clipped to the presentation end
	}
	size := t.declared[track] * dur / 8
	if sl.conn == nil {
		var l *simnet.AccessLink
		if d.access >= 0 {
			l = c.net.NewAccessLink(c.profiles.keys[d.access])
		}
		sl.conn = c.net.DialVia(l)
	}
	sl.pendDur, sl.pendTrak = dur, int32(track)
	if sl.res != nil {
		rt := sl.res.Resolve(c.net.Now(), cdn.Object{Catalog: d.catalog, Kind: cdn.KindVideo, Track: int32(track), Index: sl.nextSeg}, size)
		sl.inflight = sl.conn.StartVia(size, rt.ExtraLatency, rt.Upstream, &sl.ref)
	} else {
		sl.inflight = sl.conn.Start(size, &sl.ref)
	}
}

// onComplete books member m's finished segment transfer: fold its rate
// into the EWMA, queue the media on the member's ring, and start (or
// resume) playback if the buffer gate is met. The transfer must be the
// one m's slot has in flight: anything else is a completion routed to a
// slot that changed hands, and panics naming both.
//
//vodlint:hotpath — cohort completion fold: once per completed transfer
func (c *Cohort) onComplete(m int, tr *simnet.Transfer) {
	s := c.draw[m].state
	if s < 0 || c.slots[s].inflight != tr {
		panic(fmt.Sprintf("player: cohort member %d (state %d) completed a transfer its slot does not have in flight", m, s))
	}
	sl := c.slots[s]
	sl.inflight = nil
	rate := tr.Size * 8 / math.Max(tr.Completed-tr.Started, 1e-3)
	if sl.samples == 0 {
		sl.ewma = rate
	} else {
		sl.ewma = bgEWMAAlpha*rate + (1-bgEWMAAlpha)*sl.ewma
	}
	sl.samples++
	sl.totBytes += tr.Size
	sl.bufferSec += sl.pendDur
	q := &sl.fifo
	if q.ring == nil {
		q.ring = c.takeRing()
	}
	if int(q.n) >= c.qCap {
		panic("player: cohort segment ring overflow")
	}
	q.ring[int(q.head+q.n)%c.qCap] = ringSlot{dur: sl.pendDur, track: sl.pendTrak}
	q.n++
	sl.nextSeg++
	c.maybeStartPlayback(m, sl, tr.Completed)
}

// takeRing pops a free ring, adding a chunk when none is left.
func (c *Cohort) takeRing() []ringSlot {
	if len(c.freeRings) == 0 {
		c.growRings()
	}
	r := c.freeRings[len(c.freeRings)-1]
	c.freeRings = c.freeRings[:len(c.freeRings)-1]
	return r
}

// growRings is takeRing's cold half: it adds a chunk of as many rings as
// exist (ringQuantum at first), never more than the members without one,
// and stacks them, lowest address on top. It runs O(log peak) times per
// cohort, where peak is the most members ever buffering at once.
func (c *Cohort) growRings() {
	add := min(max(c.nRings, ringQuantum), len(c.draw)-c.nRings)
	chunk := make([]ringSlot, add*c.ringW) //vodlint:allow hotalloc — ring growth, O(log peak buffering) times per cohort
	c.nRings += add
	c.freeRings = slices.Grow(c.freeRings, c.nRings)
	for r := add - 1; r >= 0; r-- {
		c.freeRings = append(c.freeRings, chunk[r*c.ringW:(r+1)*c.ringW:(r+1)*c.ringW])
	}
}

func (c *Cohort) maybeStartPlayback(m int, sl *memberSlot, now float64) {
	if sl.flags&(coPlaying|coFinished) != 0 {
		return
	}
	allDown := sl.nextSeg >= c.tmpls[c.draw[m].tmpl].segCnt
	if sl.bufferSec >= bgStartupBufferSec-eps || (allDown && sl.bufferSec > eps) {
		sl.flags |= coPlaying
		if sl.flags&coStarted == 0 {
			sl.flags |= coStarted
			sl.sumStartup = now - c.draw[m].startAt
		} else if sl.flags&coStallOpen != 0 {
			sl.sumStallCnt++
			sl.sumStallSec += now - sl.stallSt
			sl.flags &^= coStallOpen
		}
	}
}

// advancePlayback drains member m's fluid buffer to wall time t: play
// at rate 1 until the buffer or the media runs out, then either finish
// (media end) or open a stall. A member woken for the first time has
// just arrived, and takes its slot here.
//
//vodlint:hotpath — cohort playback drain: once per woken member per iteration
func (c *Cohort) advancePlayback(m int, t float64) {
	sl := c.slotOf(m, "advanced")
	mediaDur := c.tmpls[c.draw[m].tmpl].mediaDur
	for sl.lastTime < t-eps {
		if sl.flags&coPlaying == 0 {
			sl.lastTime = t
			return
		}
		limit := math.Min(sl.bufferSec, mediaDur-sl.playhead)
		dt := t - sl.lastTime
		adv := math.Min(dt, math.Max(0, limit))
		c.consume(m, sl, adv)
		sl.lastTime += adv
		if adv < dt-eps {
			sl.flags &^= coPlaying
			if sl.playhead >= mediaDur-eps {
				sl.flags |= coFinished
				sl.lastTime = t
				return
			}
			sl.flags |= coStallOpen
			sl.stallSt = sl.lastTime
		}
	}
}

// consume plays adv seconds of member m's media off its FIFO ring,
// folding displayed bitrate, time-on-track and switch counts as each
// stretch is shown.
//
//vodlint:hotpath — cohort FIFO drain: inner loop of every playback advance
func (c *Cohort) consume(m int, sl *memberSlot, adv float64) {
	if adv <= 0 {
		return
	}
	sl.playhead += adv
	sl.bufferSec = math.Max(0, sl.bufferSec-adv)
	declared := c.tmpls[c.draw[m].tmpl].declared
	q := &sl.fifo
	rem := adv
	for rem > eps && q.n > 0 {
		s := &q.ring[q.head]
		if !s.counted {
			if sl.prevTrak >= 0 && s.track != sl.prevTrak {
				sl.sumSwitch++
				if d := s.track - sl.prevTrak; d > 1 || d < -1 {
					sl.sumNonCons++
				}
			}
			sl.prevTrak = s.track
			s.counted = true
		}
		d := math.Min(rem, s.dur)
		sl.sumWeighted += declared[s.track] * d
		sl.sumMedia += d
		sl.row[s.track] += d
		s.dur -= d
		rem -= d
		if s.dur <= eps {
			q.head = int32((int(q.head) + 1) % c.qCap)
			q.n--
		}
	}
}

// nextDeadline is the next time member m's control state can change
// without a download completing: the buffer running dry, the media
// ending, or a paused download crossing the resume threshold.
func (c *Cohort) nextDeadline(m int, sl *memberSlot, now float64) float64 {
	if sl.flags&coPlaying == 0 {
		return math.Inf(1)
	}
	t := &c.tmpls[c.draw[m].tmpl]
	d := now + math.Min(sl.bufferSec, t.mediaDur-sl.playhead)
	if sl.flags&coPausedDl != 0 && sl.nextSeg < t.segCnt {
		d = math.Min(d, now+math.Max(0, sl.bufferSec-bgResumeBufferSec))
	}
	return d
}

// finishMember finalizes member m once — taking a slot first if it never
// arrived — gives its access link, its connection and any transfer the
// connection abandons back to the network and its ring to the free
// stack, hands the observer a scratch Summary assembled from the slot
// (the TimeOnTrack slice is a view into the slot's row, not a copy), and
// then frees the slot.
func (c *Cohort) finishMember(m int) {
	if c.draw[m].state == stateDone {
		return
	}
	sl := c.slotOf(m, "finished")
	end := math.Min(c.net.Now(), c.endAt(m))
	c.advancePlayback(m, end)
	sl.flags &^= coPlaying
	if sl.flags&coStallOpen != 0 {
		sl.sumStallCnt++
		sl.sumStallSec += end - sl.stallSt
		sl.flags &^= coStallOpen
	}
	if cn := sl.conn; cn != nil {
		l := cn.Access()
		c.net.ReleaseConn(cn)
		if l != nil {
			c.net.ReleaseLink(l)
		}
		sl.conn, sl.inflight = nil, nil
	}
	if q := &sl.fifo; q.ring != nil {
		c.freeRings = append(c.freeRings, q.ring)
		q.ring = nil
	}
	if c.observer != nil {
		c.scratch = c.summary(m)
		c.observer(m, &c.scratch)
	}
	c.free = append(c.free, c.draw[m].state)
	c.live--
	c.draw[m].state = stateDone
}

// finishAll finalizes every member not yet done at the current time (the
// Group's defensive no-deadline branch).
func (c *Cohort) finishAll() {
	for m := range c.draw {
		if c.draw[m].state != stateDone {
			c.finishMember(m)
		}
	}
}

// summary assembles live member m's digest from its slot. The
// TimeOnTrack slice aliases the slot's row.
func (c *Cohort) summary(m int) Summary {
	sl := c.slots[c.draw[m].state]
	n := len(c.tmpls[c.draw[m].tmpl].declared)
	return Summary{
		StartupDelay:       sl.sumStartup,
		StallCount:         int(sl.sumStallCnt),
		StallSec:           sl.sumStallSec,
		PlayedSec:          sl.playhead,
		TimeOnTrack:        sl.row[:n:n],
		Switches:           int(sl.sumSwitch),
		NonConsecutive:     int(sl.sumNonCons),
		WeightedBitrateSec: sl.sumWeighted,
		PlayedMediaSec:     sl.sumMedia,
		TotalBytes:         sl.totBytes,
	}
}

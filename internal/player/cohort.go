package player

import (
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
// Every coarse session of one cell is stored as structure-of-arrays
// slabs, so a wake walks contiguous memory in member order instead of
// touching a dozen cache lines of one heap object before jumping to an
// unrelated one. The cohort is a client model only: Group.Run schedules
// its members — each a group member with id base+index — on the same
// deadline heap and wake list as the full sessions.
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
// session durations) before the cohort joins a Group; AddCohort freezes
// the per-member slabs. What is sized by the population is what must
// answer for every member after the run: the draw, the control state and
// the Summary slabs. The rest is held only while a member plays. Its
// access link and connection exist from its first request to its finish,
// when they go back to the network's free lists with the transfer the
// connection abandons, so the network holds as many of each as members
// are live at once. The segment FIFO is held from the first completed
// segment to the finish, so FIFO rings are pooled too: the run allocates
// a ring slab that grows to the peak number of members buffering at once,
// and nothing else.
type Cohort struct {
	net *simnet.Network

	// Per-member immutable draw, set by Add.
	cfgs    []BackgroundConfig
	segCnt  []int32 // ceil(MediaDuration/SegmentDuration) per member
	startAt []float64
	access  []*netem.Profile // per-member access-link profile, nil = none
	resolve []cdn.Resolver   // per-member edge-cache resolver, nil = origin
	catID   []int32          // title index in the cache namespace

	// Per-member control state, one slab entry per member (freeze).
	flags     []uint8 // coStarted..coInflight bit field
	lastTime  []float64
	playhead  []float64
	bufferSec []float64
	stallSt   []float64 // stall open instant (valid while coStallOpen)

	nextSeg  []int32
	samples  []int32
	prevTrak []int32
	pendTrak []int32
	pendDur  []float64
	ewma     []float64
	totBytes []float64

	conn []*simnet.Conn
	refs []cohortRef // Transfer.Meta targets: pointers into this slab

	// Segment FIFO rings: ring r is rings[r*qCap : (r+1)*qCap], at most
	// qCap buffered stretches (the buffer pauses at bgMaxBufferSec, so a
	// ring is small and bounded). Member m holds ring fifo[m].ring from
	// its first completed segment until finishMember returns it to the
	// free stack, which is threaded through the free rings' first slots
	// (freeRing is its top, -1 empty). Which ring a member got is
	// invisible outside these fields: a ring is empty when handed over
	// and every slot is written before it is read, so no Summary can
	// depend on ring identity or reuse order.
	qCap     int
	rings    []ringSlot
	freeRing int32
	fifo     []memberFIFO

	// Per-member Summary slabs; timeOnTrack packs each member's ladder-
	// width row at toOff[m] (ladders differ across service templates).
	sumStartup  []float64
	sumStallCnt []int32
	sumStallSec []float64
	sumPlayed   []float64
	sumWeighted []float64
	sumMedia    []float64
	sumSwitch   []int32
	sumNonCons  []int32
	toOff       []int32
	timeOnTrack []float64

	frozen bool

	observer func(int, *Summary)
	scratch  Summary

	// base is member 0's id in the Group run driving the cohort (set by
	// Group.Run); member m is group member base+m.
	base int
}

// Per-member flag bits.
const (
	coStarted uint8 = 1 << iota
	coPlaying
	coFinished
	coDone
	coStallOpen
	coPausedDl
	coInflight
)

// ringSlot is one buffered stretch of media: a downloaded segment, or
// what is left of it once playback has begun to consume it. In a free
// ring, slot 0's track is the next free ring's index.
type ringSlot struct {
	dur     float64
	track   int32
	counted bool // switch accounting done at first consumption
}

// memberFIFO is a member's window onto its ring (-1: none held).
type memberFIFO struct {
	ring, head, n int32
}

// ringQuantum is the smallest step the ring slab grows by, in rings;
// beyond it the slab doubles.
const ringQuantum = 8

// cohortRef identifies one cohort member as a transfer's Meta: a
// pointer into the cohort's refs slab, so starting a request boxes a
// pointer (no allocation) and a completion routes back to the member.
type cohortRef struct {
	c   *Cohort
	idx int
}

// NewCohort starts an empty cohort over the shared network; append
// members with Add, then register it with Group.AddCohort.
func NewCohort(net *simnet.Network) *Cohort {
	return &Cohort{net: net, freeRing: -1}
}

// Grow reserves room for n more members, so the Adds that follow fill
// the draw slabs in place instead of doubling their way up to n.
func (c *Cohort) Grow(n int) {
	c.cfgs = slices.Grow(c.cfgs, n)
	c.segCnt = slices.Grow(c.segCnt, n)
	c.startAt = slices.Grow(c.startAt, n)
	c.access = slices.Grow(c.access, n)
	c.resolve = slices.Grow(c.resolve, n)
	c.catID = slices.Grow(c.catID, n)
}

// Add appends one member with its own config (zero fields take the
// BackgroundConfig defaults) and returns its index. Call before the
// cohort joins a Group.
func (c *Cohort) Add(cfg BackgroundConfig) int {
	if c.frozen {
		panic("player: Cohort.Add after the cohort joined a group")
	}
	cfg = cfg.withDefaults()
	m := len(c.cfgs)
	c.cfgs = append(c.cfgs, cfg)
	c.segCnt = append(c.segCnt, int32(math.Ceil(cfg.MediaDuration/cfg.SegmentDuration)))
	c.startAt = append(c.startAt, 0)
	c.access = append(c.access, nil)
	c.resolve = append(c.resolve, nil)
	c.catID = append(c.catID, 0)
	return m
}

// Len returns the member count.
func (c *Cohort) Len() int { return len(c.cfgs) }

// SetStartAt schedules member i's arrival on the shared clock; call
// before the group runs.
func (c *Cohort) SetStartAt(i int, t float64) {
	if t < 0 {
		t = 0
	}
	c.startAt[i] = t
	if c.frozen {
		c.lastTime[i] = t
	}
}

// SetAccessProfile routes member i through a private access link over
// profile p (bits/s, looping). The member takes the link, and its
// connection, from the network at its first request and gives both back
// when it finishes.
func (c *Cohort) SetAccessProfile(i int, p *netem.Profile) { c.access[i] = p }

// SetAccessLink is SetAccessProfile(i, l.Profile()); l itself is not used.
// A shim for bench/probes.go, to be deleted with ROADMAP item 1 (f).
func (c *Cohort) SetAccessLink(i int, l *simnet.AccessLink) { c.SetAccessProfile(i, l.Profile()) }

// SetResolver routes member i's segment requests through a cell's
// edge-cache tier; catalog is the member's title index in the cache
// namespace.
func (c *Cohort) SetResolver(i int, r cdn.Resolver, catalog int32) {
	c.resolve[i] = r
	c.catID[i] = catalog
}

// SetObserver registers fn, called exactly once per member as it
// finishes with a scratch Summary valid only for the duration of the
// call (the TimeOnTrack slice aliases the cohort's slab) — fold it,
// don't retain it.
func (c *Cohort) SetObserver(fn func(i int, s *Summary)) { c.observer = fn }

// freeze sizes the per-member slabs for the member set and fixes the ring
// stride (called by AddCohort). Rings themselves are taken as members
// start buffering.
func (c *Cohort) freeze() {
	if c.frozen {
		return
	}
	c.frozen = true
	n := len(c.cfgs)
	// Ring bound: a member's buffer pauses at bgMaxBufferSec and one
	// in-flight segment can still land, so at most
	// ceil(bgMaxBufferSec/segDur) full stretches plus a partially-consumed
	// head, the clipped final segment and the just-landed one are ever
	// queued at once. The stride is the population maximum.
	c.qCap = 1
	toSum := 0
	for m := 0; m < n; m++ {
		cap := int(math.Ceil(bgMaxBufferSec/c.cfgs[m].SegmentDuration)) + 4
		if sc := int(c.segCnt[m]); cap > sc {
			cap = sc
		}
		if cap > c.qCap {
			c.qCap = cap
		}
		toSum += len(c.cfgs[m].Declared)
	}
	c.flags = make([]uint8, n)
	c.lastTime = make([]float64, n)
	c.playhead = make([]float64, n)
	c.bufferSec = make([]float64, n)
	c.stallSt = make([]float64, n)
	c.nextSeg = make([]int32, n)
	c.samples = make([]int32, n)
	c.prevTrak = make([]int32, n)
	c.pendTrak = make([]int32, n)
	c.pendDur = make([]float64, n)
	c.ewma = make([]float64, n)
	c.totBytes = make([]float64, n)
	c.conn = make([]*simnet.Conn, n)
	c.refs = make([]cohortRef, n)
	c.fifo = make([]memberFIFO, n)
	c.sumStartup = make([]float64, n)
	c.sumStallCnt = make([]int32, n)
	c.sumStallSec = make([]float64, n)
	c.sumPlayed = make([]float64, n)
	c.sumWeighted = make([]float64, n)
	c.sumMedia = make([]float64, n)
	c.sumSwitch = make([]int32, n)
	c.sumNonCons = make([]int32, n)
	c.toOff = make([]int32, n+1)
	c.timeOnTrack = make([]float64, toSum)
	off := int32(0)
	for m := 0; m < n; m++ {
		c.toOff[m] = off
		off += int32(len(c.cfgs[m].Declared))
		c.lastTime[m] = c.startAt[m]
		c.prevTrak[m] = -1
		c.sumStartup[m] = -1
		c.fifo[m].ring = -1
		c.refs[m] = cohortRef{c: c, idx: m}
	}
	c.toOff[n] = off
}

func (c *Cohort) endAt(m int) float64 { return c.startAt[m] + c.cfgs[m].SessionDuration }

func (c *Cohort) memberDone(m int) bool { return c.flags[m]&coDone != 0 }

// segDurAt returns member m's segment i media duration (the last one is
// clipped to the presentation end).
func (c *Cohort) segDurAt(m, i int) float64 {
	cfg := &c.cfgs[m]
	if start := float64(i) * cfg.SegmentDuration; start+cfg.SegmentDuration > cfg.MediaDuration {
		return cfg.MediaDuration - start
	}
	return cfg.SegmentDuration
}

// inflightSum counts in-flight transfers across live members (the
// Group's defensive no-deadline branch needs the total).
func (c *Cohort) inflightSum() int {
	s := 0
	for m := range c.flags {
		if c.flags[m]&coDone == 0 && c.flags[m]&coInflight != 0 {
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
	if now < c.startAt[m]-eps {
		return c.startAt[m], false
	}
	if now >= c.endAt(m)-eps || c.flags[m]&coFinished != 0 {
		return 0, true
	}
	c.issueRequests(m)
	d := c.nextDeadline(m, now)
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
func (c *Cohort) issueRequests(m int) {
	if c.flags[m]&coInflight != 0 || int(c.nextSeg[m]) >= int(c.segCnt[m]) {
		return
	}
	cfg := &c.cfgs[m]
	if c.flags[m]&coPausedDl != 0 {
		if c.bufferSec[m] > bgResumeBufferSec+1e-6 {
			return
		}
		c.flags[m] &^= coPausedDl
	} else if c.bufferSec[m] >= bgMaxBufferSec-1e-6 {
		c.flags[m] |= coPausedDl
		return
	}
	track := 0
	if c.samples[m] > 0 {
		budget := cfg.SafetyFactor * c.ewma[m]
		for t := len(cfg.Declared) - 1; t > 0; t-- {
			if cfg.Declared[t] <= budget {
				track = t
				break
			}
		}
	}
	dur := c.segDurAt(m, int(c.nextSeg[m]))
	size := cfg.Declared[track] * dur / 8
	if c.conn[m] == nil {
		var l *simnet.AccessLink
		if p := c.access[m]; p != nil {
			l = c.net.NewAccessLink(p)
		}
		c.conn[m] = c.net.DialVia(l)
	}
	c.pendDur[m], c.pendTrak[m] = dur, int32(track)
	if r := c.resolve[m]; r != nil {
		rt := r.Resolve(c.net.Now(), cdn.Object{Catalog: c.catID[m], Kind: cdn.KindVideo, Track: int32(track), Index: c.nextSeg[m]}, size)
		c.conn[m].StartVia(size, rt.ExtraLatency, rt.Upstream, &c.refs[m])
	} else {
		c.conn[m].Start(size, &c.refs[m])
	}
	c.flags[m] |= coInflight
}

// onComplete books member m's finished segment transfer: fold its rate
// into the EWMA, queue the media on the member's ring, and start (or
// resume) playback if the buffer gate is met.
//
//vodlint:hotpath — cohort completion fold: once per completed transfer
func (c *Cohort) onComplete(m int, tr *simnet.Transfer) {
	c.flags[m] &^= coInflight
	rate := tr.Size * 8 / math.Max(tr.Completed-tr.Started, 1e-3)
	if c.samples[m] == 0 {
		c.ewma[m] = rate
	} else {
		c.ewma[m] = bgEWMAAlpha*rate + (1-bgEWMAAlpha)*c.ewma[m]
	}
	c.samples[m]++
	c.totBytes[m] += tr.Size
	c.bufferSec[m] += c.pendDur[m]
	q := &c.fifo[m]
	if q.ring < 0 {
		q.ring = c.takeRing()
	}
	if int(q.n) >= c.qCap {
		panic("player: cohort segment ring overflow")
	}
	c.rings[int(q.ring)*c.qCap+int(q.head+q.n)%c.qCap] = ringSlot{dur: c.pendDur[m], track: c.pendTrak[m]}
	q.n++
	c.nextSeg[m]++
	c.maybeStartPlayback(m, tr.Completed)
}

// takeRing pops a free ring, growing the slab when none is left.
func (c *Cohort) takeRing() int32 {
	if c.freeRing < 0 {
		c.growRings()
	}
	r := c.freeRing
	c.freeRing = c.rings[int(r)*c.qCap].track
	return r
}

// growRings is takeRing's cold half: it extends the slab by as many
// rings as it holds (at least ringQuantum) and stacks the new ones,
// lowest index on top. It runs O(log peak) times per cohort, where peak
// is the most members ever buffering at once.
func (c *Cohort) growRings() {
	have := len(c.rings) / c.qCap
	add := max(have, ringQuantum)
	c.rings = slices.Grow(c.rings, add*c.qCap)[:(have+add)*c.qCap]
	for r := have + add - 1; r >= have; r-- {
		c.rings[r*c.qCap].track = c.freeRing
		c.freeRing = int32(r)
	}
}

func (c *Cohort) maybeStartPlayback(m int, now float64) {
	if c.flags[m]&(coPlaying|coFinished) != 0 {
		return
	}
	allDown := int(c.nextSeg[m]) >= int(c.segCnt[m])
	if c.bufferSec[m] >= bgStartupBufferSec-eps || (allDown && c.bufferSec[m] > eps) {
		c.flags[m] |= coPlaying
		if c.flags[m]&coStarted == 0 {
			c.flags[m] |= coStarted
			c.sumStartup[m] = now - c.startAt[m]
		} else if c.flags[m]&coStallOpen != 0 {
			c.sumStallCnt[m]++
			c.sumStallSec[m] += now - c.stallSt[m]
			c.flags[m] &^= coStallOpen
		}
	}
}

// advancePlayback drains member m's fluid buffer to wall time t: play
// at rate 1 until the buffer or the media runs out, then either finish
// (media end) or open a stall.
//
//vodlint:hotpath — cohort playback drain: once per woken member per iteration
func (c *Cohort) advancePlayback(m int, t float64) {
	for c.lastTime[m] < t-eps {
		if c.flags[m]&coPlaying == 0 {
			c.lastTime[m] = t
			return
		}
		limit := math.Min(c.bufferSec[m], c.cfgs[m].MediaDuration-c.playhead[m])
		dt := t - c.lastTime[m]
		adv := math.Min(dt, math.Max(0, limit))
		c.consume(m, adv)
		c.lastTime[m] += adv
		if adv < dt-eps {
			c.flags[m] &^= coPlaying
			if c.playhead[m] >= c.cfgs[m].MediaDuration-eps {
				c.flags[m] |= coFinished
				c.lastTime[m] = t
				return
			}
			c.flags[m] |= coStallOpen
			c.stallSt[m] = c.lastTime[m]
		}
	}
}

// consume plays adv seconds of member m's media off its FIFO ring,
// folding displayed bitrate, time-on-track and switch counts as each
// stretch is shown.
//
//vodlint:hotpath — cohort FIFO drain: inner loop of every playback advance
func (c *Cohort) consume(m int, adv float64) {
	if adv <= 0 {
		return
	}
	c.sumPlayed[m] += adv
	c.playhead[m] += adv
	c.bufferSec[m] = math.Max(0, c.bufferSec[m]-adv)
	to := int(c.toOff[m])
	q := &c.fifo[m]
	rem := adv
	for rem > eps && q.n > 0 {
		s := &c.rings[int(q.ring)*c.qCap+int(q.head)]
		if !s.counted {
			if c.prevTrak[m] >= 0 && s.track != c.prevTrak[m] {
				c.sumSwitch[m]++
				if d := s.track - c.prevTrak[m]; d > 1 || d < -1 {
					c.sumNonCons[m]++
				}
			}
			c.prevTrak[m] = s.track
			s.counted = true
		}
		d := math.Min(rem, s.dur)
		c.sumWeighted[m] += c.cfgs[m].Declared[s.track] * d
		c.sumMedia[m] += d
		c.timeOnTrack[to+int(s.track)] += d
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
func (c *Cohort) nextDeadline(m int, now float64) float64 {
	if c.flags[m]&coPlaying == 0 {
		return math.Inf(1)
	}
	d := now + math.Min(c.bufferSec[m], c.cfgs[m].MediaDuration-c.playhead[m])
	if c.flags[m]&coPausedDl != 0 && int(c.nextSeg[m]) < int(c.segCnt[m]) {
		d = math.Min(d, now+math.Max(0, c.bufferSec[m]-bgResumeBufferSec))
	}
	return d
}

// finishMember finalizes member m once, gives its access link, its
// connection and any transfer the connection abandons back to the network
// and its ring to the free stack, and hands the observer a scratch
// Summary assembled from the slabs (the TimeOnTrack slice is a view into
// the cohort's slab, not a copy).
func (c *Cohort) finishMember(m int) {
	if c.flags[m]&coDone != 0 {
		return
	}
	end := math.Min(c.net.Now(), c.endAt(m))
	c.advancePlayback(m, end)
	c.flags[m] &^= coPlaying
	if c.flags[m]&coStallOpen != 0 {
		c.sumStallCnt[m]++
		c.sumStallSec[m] += end - c.stallSt[m]
		c.flags[m] &^= coStallOpen
	}
	if cn := c.conn[m]; cn != nil {
		l := cn.Access()
		c.net.ReleaseConn(cn)
		if l != nil {
			c.net.ReleaseLink(l)
		}
		c.conn[m] = nil
	}
	if q := &c.fifo[m]; q.ring >= 0 {
		c.rings[int(q.ring)*c.qCap].track = c.freeRing
		c.freeRing, q.ring = q.ring, -1
	}
	c.flags[m] |= coDone
	if c.observer != nil {
		c.scratch = c.MemberSummary(m)
		c.observer(m, &c.scratch)
	}
}

// finishAll finalizes every live member at the current time (the
// Group's defensive no-deadline branch).
func (c *Cohort) finishAll() {
	for m := range c.flags {
		if c.flags[m]&coDone == 0 {
			c.finishMember(m)
		}
	}
}

// MemberSummary assembles member m's digest from the slabs. The
// TimeOnTrack slice aliases the cohort's slab — copy it to retain it
// beyond the cohort's lifetime.
func (c *Cohort) MemberSummary(m int) Summary {
	lo, hi := int(c.toOff[m]), int(c.toOff[m+1])
	return Summary{
		StartupDelay:       c.sumStartup[m],
		StallCount:         int(c.sumStallCnt[m]),
		StallSec:           c.sumStallSec[m],
		PlayedSec:          c.sumPlayed[m],
		TimeOnTrack:        c.timeOnTrack[lo:hi:hi],
		Switches:           int(c.sumSwitch[m]),
		NonConsecutive:     int(c.sumNonCons[m]),
		WeightedBitrateSec: c.sumWeighted[m],
		PlayedMediaSec:     c.sumMedia[m],
		TotalBytes:         c.totBytes[m],
	}
}

package player

import (
	"fmt"
	"math"

	"repro/internal/simnet"
)

// Group coordinates several sessions over one shared simulated network —
// the "multiple clients behind one cellular link" scenario that fairness
// studies like FESTIVE (cited in §5) target, and the building block of a
// fleet cell. Sessions start at t=0 unless scheduled later with
// Session.SetStartAt, and each runs for its own SessionDuration from its
// start; the fluid network arbitrates their transfers max-min fairly.
// A group has two member kinds: full sessions, then the members of its
// cohorts — the coarse analytic session tier — which compete for the
// same links as the sessions and are scheduled by the same loop.
//
// A single session's Run is the one-member special case of a Group.
//
// A full session can also be lent (AddLent): until it arrives it is a
// start time, and it exists only while it plays.
type Group struct {
	net *simnet.Network
	// sessions[id] is session member id, nil while a lent member waits to
	// arrive and once it has been given back; lent[id] is a lent member's
	// start, or lentEager for a session added with Add, or lentBack once
	// a lent member has been given back.
	sessions []*Session
	lent     []float64
	cohorts  []*Cohort
	observer func(*Session, *Result)
	lend     func(id int) *Session
	giveBack func(*Session)

	// Run's scheduling state, kept by Reset for the group's next run.
	h     groupHeap
	woken []bool
	wake  []int
}

// lent values other than a waiting member's start.
const (
	lentEager = -1
	lentBack  = -2
)

// NewGroup creates a coordinator; sessions added to it must share one
// simnet.Network.
func NewGroup() *Group { return &Group{} }

// Reset puts g into the state NewGroup returns, keeping the memory its
// runs sized by their member count. The sessions and cohorts it held stay
// their callers'.
func (g *Group) Reset() {
	clear(g.sessions)
	clear(g.cohorts)
	*g = Group{sessions: g.sessions[:0], lent: g.lent[:0], cohorts: g.cohorts[:0], h: g.h, woken: g.woken, wake: g.wake[:0]}
}

// Add registers a session. Every member must have been created over the
// same simnet.Network.
func (g *Group) Add(s *Session) error {
	if g.net == nil {
		g.net = s.net
	} else if g.net != s.net {
		return fmt.Errorf("player: all sessions in a group must share one network")
	}
	s.ensureResult()
	g.sessions = append(g.sessions, s)
	g.lent = append(g.lent, lentEager)
	return nil
}

// AddLent registers a full session member that costs its start time until
// it arrives: at its first service at or after start the group asks the
// lender (SetLender) for its session, which it gives back after the
// observer has read it, with its connections and access link returned to
// the network. The lent session must be one NewSession or ReuseSession
// built over the group's network, configured as the member — SetStartAt
// at start included — and never run; the group runs it lean (SetLean),
// so its Summary is its only output. Since the group touches a session
// before its start only to learn the start, the member plays exactly as
// that session added with Add, lean, would.
func (g *Group) AddLent(start float64) {
	g.sessions = append(g.sessions, nil)
	g.lent = append(g.lent, max(start, 0))
}

// SetLender registers how lent members get their sessions: lend(id) builds
// member id's over net, the group's network (ids count the sessions in
// add order, Add and AddLent alike), and giveBack takes it back once it is
// done and holds no network object, free for ReuseSession.
func (g *Group) SetLender(net *simnet.Network, lend func(id int) *Session, giveBack func(*Session)) {
	if g.net == nil {
		g.net = net
	}
	g.lend, g.giveBack = lend, giveBack
}

// Member returns the session's member id in the Group run driving it.
func (s *Session) Member() int { return s.gidx }

// AddCohort registers a background cohort over the same network. Its
// members become group members after all full sessions and the members
// of the cohorts added before it.
func (g *Group) AddCohort(c *Cohort) error {
	if c.Len() == 0 {
		return fmt.Errorf("player: cohort has no members")
	}
	if g.net == nil {
		g.net = c.net
	} else if g.net != c.net {
		return fmt.Errorf("player: all sessions in a group must share one network")
	}
	c.freeze()
	g.cohorts = append(g.cohorts, c)
	return nil
}

// SetObserver registers fn, called exactly once per session as it
// finishes (finish order, which is deterministic). When an observer is
// set, Run returns nil and each session's Result is released right
// after its callback returns — the memory-bounded streaming mode
// population runs use: the caller folds the Result into its aggregates
// and must not retain it. Lean sessions reach the observer with a nil
// Result; their Summary is the output.
func (g *Group) SetObserver(fn func(*Session, *Result)) { g.observer = fn }

// groupHeap is an indexed min-heap of member ids keyed by each member's
// next wake time. pos maps a member id to its heap slot (-1 when
// absent), so re-keying a woken member is O(log M) without searching.
type groupHeap struct {
	key []float64
	id  []int
	pos []int
}

func (h *groupHeap) init(m int) {
	if cap(h.pos) < m {
		h.key = make([]float64, 0, m) //vodlint:allow hotalloc — per-run heap storage, amortized over the whole group run
		h.id = make([]int, 0, m)      //vodlint:allow hotalloc — per-run heap storage, amortized over the whole group run
		h.pos = make([]int, m)        //vodlint:allow hotalloc — per-run heap storage, amortized over the whole group run
	}
	h.key, h.id, h.pos = h.key[:0], h.id[:0], h.pos[:m]
	for i := range h.pos {
		h.pos[i] = -1
	}
}

func (h *groupHeap) len() int { return len(h.key) }

// minKey returns the earliest wake time, or +Inf when the heap is empty.
func (h *groupHeap) minKey() float64 {
	if len(h.key) == 0 {
		return math.Inf(1)
	}
	return h.key[0]
}

func (h *groupHeap) popMin() int {
	id := h.id[0]
	h.removeAt(0)
	return id
}

// set inserts id with key k, or re-keys it if already present.
func (h *groupHeap) set(id int, k float64) {
	if i := h.pos[id]; i >= 0 {
		h.key[i] = k
		if !h.up(i) {
			h.down(i)
		}
		return
	}
	h.key = append(h.key, k)
	h.id = append(h.id, id)
	h.pos[id] = len(h.key) - 1
	h.up(len(h.key) - 1)
}

// remove drops id if present (no-op otherwise).
func (h *groupHeap) remove(id int) {
	if i := h.pos[id]; i >= 0 {
		h.removeAt(i)
	}
}

func (h *groupHeap) removeAt(i int) {
	last := len(h.key) - 1
	h.pos[h.id[i]] = -1
	if i != last {
		h.key[i] = h.key[last]
		h.id[i] = h.id[last]
		h.pos[h.id[i]] = i
	}
	h.key = h.key[:last]
	h.id = h.id[:last]
	if i != last {
		if !h.up(i) {
			h.down(i)
		}
	}
}

func (h *groupHeap) up(i int) bool {
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

func (h *groupHeap) down(i int) {
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

func (h *groupHeap) swap(i, j int) {
	h.key[i], h.key[j] = h.key[j], h.key[i]
	h.id[i], h.id[j] = h.id[j], h.id[i]
	h.pos[h.id[i]] = i
	h.pos[h.id[j]] = j
}

// Run drives every member to completion and returns the sessions'
// results in the order they were added (nil when an observer is set).
//
// Members are the sessions in add order, then each cohort's members in
// add order; a member's id is its position in that sequence, so
// ascending id is exactly the eager scan order and a cohort member is
// scheduled like any session (Cohort.base is its first member's id).
//
// The loop is lazy: instead of scanning and advancing every member on
// every event (O(M) per completed transfer, O(M²) per busy interval),
// members park in a deadline heap keyed by their own nextDeadline — an
// absolute prediction of the next time their control state can change
// without one of their downloads completing — and each iteration
// services only the woken set: members whose deadline arrived plus the
// owners of the transfers the network just completed. Everything a
// member does (playback advance, sample ticks, completion handling,
// request issue) happens at the same virtual times, in the same add
// order, as the eager scan produced; a single-member group degenerates
// to the exact eager call sequence, so Session.Run is unchanged
// observable-for-observable.
//
// A woken member is never done: members finish only in the service pass
// (which also takes them off the heap), and a completion wakes its owner
// only while the owner is live.
//
//vodlint:hotpath — lean-session event loop: one iteration per completed transfer
func (g *Group) Run() []*Result {
	nS := len(g.sessions)
	nM := nS
	for i, s := range g.sessions {
		if s != nil {
			s.gidx = i
		} else if g.lend == nil {
			panic("player: a group with lent members runs without a lender")
		}
	}
	for _, c := range g.cohorts {
		c.base = nM
		nM += c.Len()
	}
	if nM == 0 {
		return nil
	}
	net := g.net
	h := &g.h
	h.init(nM)
	if cap(g.woken) < nM {
		g.woken = make([]bool, nM)  //vodlint:allow hotalloc — per-run wake flags, amortized over the whole group run
		g.wake = make([]int, 0, nM) //vodlint:allow hotalloc — per-run wake list, amortized over the whole group run
	}
	woken, wake := g.woken[:nM], g.wake[:0]
	clear(woken)
	addWake := func(id int) {
		if !woken[id] {
			woken[id] = true
			wake = append(wake, id)
		}
	}
	for id := 0; id < nM; id++ {
		addWake(id) // first round: everyone is serviced once
	}
	remaining := nM
	for {
		// Service the woken members in id order: finish members past
		// their end, keep unarrived members parked at their start, and
		// let the rest issue requests and re-key their next deadline.
		// Every live member always holds a key ≤ its (finite) endAt.
		now := net.Now()
		for _, id := range wake {
			woken[id] = false
			var key float64
			var fin bool
			if id < nS {
				if s := g.arrived(id, now); s == nil {
					key = g.lent[id]
				} else if key, fin = s.service(now); fin {
					g.finish(id, s)
				}
			} else {
				c := g.cohortOf(id)
				m := id - c.base
				if key, fin = c.service(m, now); fin {
					c.finishMember(m)
				}
			}
			if fin {
				h.remove(id)
				remaining--
			} else {
				h.set(id, key)
			}
		}
		wake = wake[:0]
		if remaining == 0 {
			break
		}
		target := h.minKey()
		if math.IsInf(target, 1) {
			// Defensive: no timed wakeups left. With nothing in flight no
			// event can ever arrive — finish everyone at the current time.
			inflight := 0
			for _, s := range g.sessions {
				if s != nil && !s.done {
					inflight += s.inflight
				}
			}
			for _, c := range g.cohorts {
				inflight += c.inflightSum()
			}
			if inflight == 0 {
				for id := range g.sessions {
					if s := g.arrived(id, math.Inf(1)); s != nil && !s.done {
						g.finish(id, s)
					}
				}
				for _, c := range g.cohorts {
					c.finishAll()
				}
				break
			}
		}
		if target <= now+eps {
			target = now + 1e-6
		}
		completed := net.Step(target)
		tnow := net.Now()
		// Wake the members that are due at the new time plus the owners
		// of the completed transfers, then sort so the wake list is in
		// id order (insertion sort: batches are tiny and nearly sorted).
		for h.len() > 0 && h.minKey() <= tnow+eps {
			addWake(h.popMin())
		}
		for _, tr := range completed {
			switch m := tr.Meta.(type) {
			case *reqMeta:
				if m.owner != nil && !m.owner.done {
					addWake(m.owner.gidx)
				}
			case *cohortRef:
				if !m.c.memberDone(m.idx) {
					addWake(m.c.base + m.idx)
				}
			}
		}
		for i := 1; i < len(wake); i++ {
			for j := i; j > 0 && wake[j] < wake[j-1]; j-- {
				wake[j], wake[j-1] = wake[j-1], wake[j]
			}
		}
		// Sync the woken members' playback to the clock, then dispatch
		// completions in batch order — the same advance-then-complete
		// order the eager loop used. Parked members advance later, at
		// their next wake: advancePlayback is subdivision-invariant, and
		// their deadline keys are absolute times that stay valid while
		// their control state is untouched.
		for _, id := range wake {
			if id < nS {
				if s := g.arrived(id, tnow); s != nil {
					s.advancePlayback(tnow)
				}
			} else {
				c := g.cohortOf(id)
				c.advancePlayback(id-c.base, tnow)
			}
		}
		for _, tr := range completed {
			switch m := tr.Meta.(type) {
			case *reqMeta:
				if m.owner != nil && !m.owner.done {
					m.owner.onComplete(tr)
				}
				// else: abandoned session; ignore the straggler
			case *cohortRef:
				if !m.c.memberDone(m.idx) {
					m.c.onComplete(m.idx, tr)
				}
			}
			net.Recycle(tr)
		}
	}
	g.wake = wake
	if g.observer != nil {
		return nil
	}
	out := make([]*Result, len(g.sessions)) //vodlint:allow hotalloc — cold epilogue: runs once per group, only without an observer
	for i, s := range g.sessions {
		if s != nil {
			out[i] = s.res
		}
	}
	return out
}

// arrived returns session member id as of time t: a lent member waiting
// for a start after t has none yet (nil), one whose start has come is
// lent its session here, and a given-back one has none any more (nil).
func (g *Group) arrived(id int, t float64) *Session {
	s := g.sessions[id]
	if s != nil || g.lent[id] < 0 || t < g.lent[id]-eps {
		return s
	}
	s = g.lend(id)
	if s.net != g.net {
		panic(fmt.Sprintf("player: lent member %d's session is over another network", id))
	}
	s.SetLean()
	s.gidx = id
	g.sessions[id] = s
	return s
}

// cohortOf resolves a cohort member's id to its cohort (a backward scan
// over the bases: a group holds a handful of cohorts).
func (g *Group) cohortOf(id int) *Cohort {
	k := len(g.cohorts) - 1
	for g.cohorts[k].base > id {
		k--
	}
	return g.cohorts[k]
}

// service is a session's turn in Run's service pass: park until the
// session has arrived, report finished once it is past its end (or
// played out), else issue requests and return the next deadline.
func (s *Session) service(now float64) (nextKey float64, finished bool) {
	if now < s.startAt-eps {
		return s.startAt, false
	}
	if now >= s.endAt()-eps || s.finished {
		return 0, true
	}
	s.issueRequests()
	d := s.nextDeadline()
	if e := s.endAt(); e < d {
		d = e
	}
	return d, false
}

// finish finalizes a session once, notifies the observer, and — in
// observer mode — releases the Result so a population run never holds
// more than the in-flight cell's worth of per-session state.
//
// A lent member then gives its connections and access link back to the
// network and itself back to the lender.
func (g *Group) finish(id int, s *Session) {
	if s.done {
		return
	}
	s.finishRun()
	if g.observer != nil {
		g.observer(s, s.res)
		s.res = nil
	}
	if g.lent[id] == lentEager {
		return
	}
	for i, c := range s.conns {
		if c != nil {
			s.net.ReleaseConn(c)
			s.conns[i] = nil
		}
	}
	if s.link != nil {
		s.net.ReleaseLink(s.link)
		s.link = nil
	}
	g.sessions[id], g.lent[id] = nil, lentBack
	g.giveBack(s)
}

// finishRun finalizes a session once and releases its connections so
// they stop competing for the shared link.
func (s *Session) finishRun() {
	if s.done {
		return
	}
	s.finalize()
	for _, c := range s.conns {
		if c != nil {
			c.Close()
		}
	}
	s.done = true
}

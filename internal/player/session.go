package player

import (
	"fmt"
	"math"

	"repro/internal/adaptation"
	"repro/internal/cdn"
	"repro/internal/manifest"
	"repro/internal/media"
	"repro/internal/origin"
	"repro/internal/replacement"
	"repro/internal/simnet"
	"repro/internal/traffic"
)

const eps = 1e-9

// Session runs one streaming session of a configured player against an
// origin over a simulated network, in virtual time. A session is strictly
// single-threaded and deterministic.
type Session struct {
	cfg  Config
	org  *origin.Origin
	pres *manifest.Presentation // server truth (has sizes)
	view *manifest.Presentation // client view (sizes only if protocol exposes them)
	net  *simnet.Network

	conns []*simnet.Conn
	live  []*reqMeta // in-flight request per connection slot

	// startAt offsets the whole session on the shared network clock
	// (fleet arrivals); 0 for ordinary sessions. link, when non-nil,
	// routes every connection through a per-client access link.
	startAt float64
	link    *simnet.AccessLink

	// resolver, when non-nil, classifies every media segment request
	// against the cell's edge-cache tier; catalogID names this
	// session's title in the cache namespace. Documents (manifests,
	// lazy HLS playlists) are pinned at the edge and never resolve.
	resolver  cdn.Resolver
	catalogID int32

	// playback state
	playhead       float64
	lastTime       float64
	playing        bool
	started        bool
	finished       bool
	curPlay        PlayInterval
	stallOpen      bool
	stallStart     float64
	nextDisplayIdx int
	nextSample     float64

	// download state
	videoBuf, audioBuf     Buffer
	nextVideo, nextAudio   int
	pausedVideo, pausedAud bool
	lastVideoTrack         int
	prevDecisionOcc        float64
	fetchedDocs            map[string]bool
	docQueue               []docReq
	docNext                int // docQueue[docNext:] is still to fetch
	inflight               int
	downloadDead           bool
	segSeq                 int
	group                  *splitGroup // &split while a split segment is in flight
	split                  splitGroup
	splitWeights           []float64
	lastVideoDone          float64
	deliveredAtDone        float64
	videoSamples           int
	done                   bool

	// allocation-avoidance state (hot path)
	metaFree    []*reqMeta // recycled request metadata
	avgBitrates []float64  // ladder average bitrates, nil unless complete
	avgBuf      []float64  // avgBitrates' backing array, kept by ReuseSession
	segSizeFn   func(track, index int) float64
	sizeFn      func(track, index int) float64 // s.viewSegmentSize, bound once per Session
	replScratch []replacement.BufferedSegment

	// Immutable media facts, duplicated out of the Result so lean
	// sessions (res == nil) can run the full state machine.
	segCount int
	segDur   float64
	declared []float64

	// Online summary accumulation (see summary.go). Always maintained,
	// whether or not a full Result is kept; a full Result carries a copy.
	sum          Summary
	sumPrevTrack int
	startupDelay float64
	totalBytes   float64
	wastedBytes  float64

	lean bool
	res  *Result
	// firstFwd[i] is 1 + the Downloads position of the first completed
	// forward (non-replacement) video download of segment i, 0 while
	// there is none; it exists with res (prevDownloadedTrack).
	firstFwd []int32

	// gidx is the session's member id in the Group run driving it (set
	// by Group.Run): completed transfers wake their owner by id.
	gidx int
}

type docReq struct {
	url      string
	rs, re   int64
	body     []byte
	wireSize float64
}

type reqKind int

const (
	reqDoc reqKind = iota
	reqSeg
	reqPart
)

type reqMeta struct {
	owner   *Session
	kind    reqKind
	slot    int
	url     string
	rs, re  int64
	body    []byte
	typ     media.MediaType
	track   int
	index   int
	replace bool
	dlIdx   int
	group   *splitGroup
}

type splitGroup struct {
	meta      reqMeta
	remaining int
	started   float64
	bytes     float64
	route     cdn.Route // resolved once for the whole segment; parts share it
}

// NewSession builds a session. The network must be freshly created for
// the session (its clock starts at 0).
func NewSession(cfg Config, org *origin.Origin, net *simnet.Network) (*Session, error) {
	return ReuseSession(nil, cfg, org, net)
}

// ReuseSession is NewSession in s's memory (a new Session when s is nil):
// whatever s played before, it comes back exactly as NewSession builds
// one, keeping only the capacity of its connection table, buffers,
// request metadata and scratch. s must be done and hold no network object:
// a session a Group gave back (Group.SetLender) qualifies. On an error s
// is left as it was.
func ReuseSession(s *Session, cfg Config, org *origin.Origin, net *simnet.Network) (*Session, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.StartupTrack < 0 || cfg.StartupTrack >= len(org.Pres.Video) {
		return nil, fmt.Errorf("player: startup track %d out of ladder range", cfg.StartupTrack)
	}
	if s == nil {
		s = &Session{fetchedDocs: map[string]bool{}}
	}
	for _, m := range s.live {
		if m != nil {
			s.freeMeta(m)
		}
	}
	clear(s.fetchedDocs)
	*s = Session{
		cfg:            cfg,
		org:            org,
		pres:           org.Pres,
		view:           org.ClientView(),
		net:            net,
		conns:          resized(s.conns, cfg.MaxConnections),
		live:           resized(s.live, cfg.MaxConnections),
		lastVideoTrack: -1,
		fetchedDocs:    s.fetchedDocs,
		docQueue:       s.docQueue[:0],
		videoBuf:       s.videoBuf.emptied(),
		audioBuf:       s.audioBuf.emptied(),
		metaFree:       s.metaFree,
		replScratch:    s.replScratch[:0],
		splitWeights:   s.splitWeights,
		sizeFn:         s.sizeFn,
		avgBuf:         s.avgBuf[:0],
		declared:       s.declared[:0],
		sum:            Summary{StartupDelay: -1, TimeOnTrack: s.sum.TimeOnTrack[:0]},
	}
	s.segCount = len(s.pres.Video[0].Segments)
	s.segDur = s.pres.Video[0].SegmentDuration
	for _, r := range s.pres.Video {
		s.declared = append(s.declared, r.DeclaredBitrate)
	}
	s.startupDelay = -1
	s.sum.TimeOnTrack = append(s.sum.TimeOnTrack, make([]float64, len(s.declared))...)
	s.sumPrevTrack = -1
	// The adaptation context inputs that never change over a session are
	// computed once instead of per segment decision.
	for _, r := range s.view.Video {
		if r.AverageBitrate > 0 {
			s.avgBuf = append(s.avgBuf, r.AverageBitrate)
		}
	}
	if len(s.avgBuf) == len(s.view.Video) {
		s.avgBitrates = s.avgBuf
	}
	if cfg.ExposeSegmentSizes && len(s.view.Video) > 0 && len(s.view.Video[0].Segments) > 0 &&
		s.view.Video[0].Segments[0].Size > 0 {
		if s.sizeFn == nil {
			s.sizeFn = s.viewSegmentSize
		}
		s.segSizeFn = s.sizeFn
	}
	s.buildDocQueue()
	return s, nil
}

// resized is s with length n and every element zero, reallocated only
// when its capacity is short.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n) //vodlint:allow hotalloc — grows a kept slice: once per larger size its session meets, then reused
	}
	s = s[:n]
	clear(s)
	return s
}

// viewSegmentSize is the segment size the client's view exposes.
func (s *Session) viewSegmentSize(track, index int) float64 {
	return float64(s.view.Video[track].Segments[index].Size)
}

// SetStartAt schedules the session to arrive at virtual time t on the
// shared network clock (a fleet client joining mid-window). Call before
// the session runs, on a session driven by a Group. The session issues
// nothing before t, SessionDuration counts from t, and per-session
// metrics (startup delay, 1 Hz samples) are anchored at t.
func (s *Session) SetStartAt(t float64) {
	if t < 0 {
		t = 0
	}
	s.startAt = t
	s.lastTime = t
	s.nextSample = t
}

// SetAccessLink routes all of the session's connections through the
// given per-client access link (simnet.Network.NewAccessLink); nil
// keeps the plain shared-link behaviour. Call before the session runs.
func (s *Session) SetAccessLink(l *simnet.AccessLink) { s.link = l }

// SetResolver routes this session's media requests through a cell's
// edge-cache tier. catalog is the session's title index in the cache
// namespace (the fleet service index). Must be called before Run.
func (s *Session) SetResolver(r cdn.Resolver, catalog int32) {
	s.resolver = r
	s.catalogID = catalog
}

// Resolver returns what SetResolver set (nil: none).
func (s *Session) Resolver() cdn.Resolver { return s.resolver }

// SetLean puts the session in lean mode: no Result is ever allocated —
// no per-segment display arrays, no download/transaction/event logs, no
// 1 Hz samples — and the session's only output is the online Summary.
// The state machine runs identically (every float trajectory, including
// the 1 Hz sampler ticks, matches the full-fidelity run bit for bit);
// only the recording is dropped. Call before the session is added to a
// Group. Population runs use this for every non-focal session.
func (s *Session) SetLean() { s.lean = true }

// ensureResult allocates the full Result unless the session runs lean.
// Group.Add calls it on registration, so construction stays cheap for
// the lean population path.
func (s *Session) ensureResult() {
	if s.lean || s.res != nil {
		return
	}
	n := s.segCount
	// The logs are sized by what the session can fetch, not by the whole
	// presentation: it plays at most SessionDuration of media and
	// downloads at most the pause threshold ahead of the playhead, plus
	// the segment in flight when the threshold is crossed. Replacement
	// fetches more; append covers it.
	reach := s.cfg.SessionDuration + s.cfg.PauseThresholdSec
	fetch := min(n, int(reach/s.segDur)+2)
	if len(s.pres.Audio) > 0 {
		a := s.pres.Audio[0]
		fetch += min(len(a.Segments), int(reach/a.SegmentDuration)+2)
	}
	txs := fetch
	if s.cfg.Scheduler == SchedulerSplit {
		txs *= s.cfg.MaxConnections
	}
	s.res = &Result{
		Name:               s.cfg.Name,
		MediaDuration:      s.pres.Duration,
		SegmentCount:       n,
		SegmentDuration:    s.segDur,
		StartupDelay:       -1,
		Displayed:          make([]int, n),
		DisplayedWallStart: make([]float64, n),
		// One sample per second; one download and one transaction per
		// segment, the startup documents on top.
		Samples:      make([]BufferSample, 0, int(s.cfg.SessionDuration)+2),
		Downloads:    make([]Download, 0, fetch+8),
		Transactions: make([]traffic.Transaction, 0, txs+16),
		Declared:     s.declared,
	}
	for i := range s.res.Displayed {
		s.res.Displayed[i] = -1
		s.res.DisplayedWallStart[i] = -1
	}
	s.firstFwd = make([]int32, n)
}

// endAt is the wall time the session's duration budget expires.
func (s *Session) endAt() float64 { return s.startAt + s.cfg.SessionDuration }

func (s *Session) buildDocQueue() {
	p := s.pres
	push := func(url string) {
		if body, ok := s.org.Document(url); ok {
			s.docQueue = append(s.docQueue, docReq{url: url, rs: -1, re: -1, body: body, wireSize: float64(len(body))})
		}
	}
	push(p.ManifestURL())
	switch p.Protocol {
	case manifest.HLS:
		push(p.Video[s.cfg.StartupTrack].PlaylistURL)
	case manifest.DASH:
		if p.Addressing == manifest.SidxRanges {
			for _, rs := range [2][]*manifest.Rendition{p.Video, p.Audio} {
				for _, r := range rs {
					if body, ok := s.org.Sidx(r.MediaURL); ok {
						s.docQueue = append(s.docQueue, docReq{
							url: r.MediaURL, rs: r.IndexOffset, re: r.IndexOffset + r.IndexLength - 1,
							body: body, wireSize: float64(r.IndexLength),
						})
					}
				}
			}
		}
	}
	for _, d := range s.docQueue {
		s.fetchedDocs[d.url] = true
	}
}

func (s *Session) separateAudio() bool { return len(s.pres.Audio) > 0 }

func (s *Session) conn(slot int) *simnet.Conn {
	if s.conns[slot] == nil {
		s.conns[slot] = s.net.DialVia(s.link)
	}
	return s.conns[slot]
}

// newMeta returns request metadata from the session's free list (every
// field zeroed) or a fresh allocation.
func (s *Session) newMeta() *reqMeta {
	if k := len(s.metaFree); k > 0 {
		m := s.metaFree[k-1]
		s.metaFree = s.metaFree[:k-1]
		return m
	}
	return &reqMeta{} //vodlint:allow hotalloc — free-list miss: amortized to zero once metaFree warms up
}

// freeMeta recycles request metadata once no transfer references it.
func (s *Session) freeMeta(m *reqMeta) {
	*m = reqMeta{}
	s.metaFree = append(s.metaFree, m)
}

//vodlint:hotpath
func (s *Session) startTransfer(slot int, size float64, m *reqMeta) {
	m.owner = s
	m.slot = slot
	c := s.conn(slot)
	switch {
	case m.kind == reqSeg && s.resolver != nil:
		rt := s.resolver.Resolve(s.net.Now(), s.objectOf(m), size)
		c.StartVia(size, rt.ExtraLatency, rt.Upstream, m)
	case m.kind == reqPart:
		rt := m.group.route
		c.StartVia(size, rt.ExtraLatency, rt.Upstream, m)
	default:
		c.Start(size, m)
	}
	s.live[slot] = m
	s.inflight++
}

// objectOf names a segment request in the cache namespace.
//
//vodlint:hotpath
func (s *Session) objectOf(m *reqMeta) cdn.Object {
	kind := cdn.KindVideo
	if m.typ == media.TypeAudio {
		kind = cdn.KindAudio
	}
	return cdn.Object{Catalog: s.catalogID, Kind: kind, Track: int32(m.track), Index: int32(m.index)}
}

// Run executes the session to completion and returns the result. It is
// the single-member special case of a Group run, so a solo session and a
// member of a multi-client group behave identically.
func (s *Session) Run() *Result {
	g := NewGroup()
	if err := g.Add(s); err != nil {
		panic(err) // unreachable: a fresh group accepts any session
	}
	g.Run()
	return s.res
}

// nextDeadline returns the next time playback or control state can change
// without a download completing.
func (s *Session) nextDeadline() float64 {
	d := math.Inf(1)
	now := s.net.Now()
	if s.playing {
		end := math.Min(s.playableEnd(), s.pres.Duration)
		d = math.Min(d, now+(end-s.playheadAtNow()))
		if s.pausedVideo {
			occ := s.videoBuf.PlayableEnd(s.playheadAtNow()) - s.playheadAtNow()
			d = math.Min(d, now+math.Max(0, occ-s.cfg.ResumeThresholdSec))
		}
		if s.pausedAud {
			occ := s.audioBuf.PlayableEnd(s.playheadAtNow()) - s.playheadAtNow()
			d = math.Min(d, now+math.Max(0, occ-s.cfg.ResumeThresholdSec))
		}
	}
	if s.inflight > 0 || s.playing {
		// Keep the 1 Hz sampler ticking while anything is happening.
		d = math.Min(d, s.nextSample)
	}
	return d
}

// playableEnd is the media time up to which playback can proceed.
func (s *Session) playableEnd() float64 {
	end := s.videoBuf.PlayableEnd(s.playhead)
	if s.separateAudio() {
		end = math.Min(end, s.audioBuf.PlayableEnd(s.playhead))
	}
	return end
}

func (s *Session) bufferedSec() float64 { return s.playableEnd() - s.playhead }

func (s *Session) bufferedSegments() int {
	n := s.videoBuf.UnplayedCount(s.playhead)
	if s.separateAudio() {
		if a := s.audioBuf.UnplayedCount(s.playhead); a < n {
			n = a
		}
	}
	return n
}

// playheadAtNow interpolates the playhead to the current wall time (the
// playhead field is only synced by advancePlayback).
func (s *Session) playheadAtNow() float64 {
	ph := s.playhead
	if s.playing {
		ph += s.net.Now() - s.lastTime
		if end := s.playableEnd(); ph > end {
			ph = end
		}
	}
	return ph
}

// advancePlayback moves the playhead to wall time t, recording displayed
// segments, stalls, 1 Hz samples and playback intervals.
func (s *Session) advancePlayback(t float64) {
	for s.lastTime < t-eps {
		if !s.playing {
			s.sampleUpTo(t)
			s.lastTime = t
			break
		}
		limit := math.Min(s.playableEnd(), s.pres.Duration)
		maxAdv := math.Max(0, limit-s.playhead)
		dt := t - s.lastTime
		adv := math.Min(dt, maxAdv)
		s.sampleUpTo(s.lastTime + adv)
		s.recordDisplayUpTo(s.playhead + adv)
		s.playhead += adv
		s.lastTime += adv
		if adv < dt-eps {
			if s.playhead >= s.pres.Duration-eps {
				s.stopPlaying(false)
				s.finished = true
				s.sampleUpTo(t)
				s.lastTime = t
				return
			}
			s.stopPlaying(true)
		}
	}
}

// sampleUpTo records 1 Hz buffer samples for wall times up to t, the
// simulator-side analogue of the paper's seekbar hook (§2.4).
func (s *Session) sampleUpTo(t float64) {
	for s.nextSample <= t+eps {
		// The tick advances even in lean mode (only the append is
		// skipped) so full and lean sessions step through identical
		// deadline sequences.
		if s.res != nil {
			ph := s.playhead
			if s.playing {
				ph += s.nextSample - s.lastTime
				if end := s.playableEnd(); ph > end {
					ph = end
				}
			}
			s.res.Samples = append(s.res.Samples, BufferSample{
				T:        s.nextSample,
				Playhead: ph,
				VideoSec: math.Max(0, s.videoBuf.PlayableEnd(ph)-ph),
				AudioSec: math.Max(0, s.audioBuf.PlayableEnd(ph)-ph),
				Playing:  s.playing,
			})
		}
		s.nextSample++
	}
}

// recordDisplayUpTo notes the on-screen track for every segment whose
// playback begins before media time target.
func (s *Session) recordDisplayUpTo(target float64) {
	segDur := s.segDur
	for s.nextDisplayIdx < s.segCount {
		start := float64(s.nextDisplayIdx) * segDur
		if start >= target-eps {
			break
		}
		if seg, ok := s.videoBuf.SegmentAt(start + eps); ok {
			if s.res != nil {
				s.res.Displayed[s.nextDisplayIdx] = seg.Track
				s.res.DisplayedWallStart[s.nextDisplayIdx] = s.lastTime + (start - s.playhead)
			}
			s.foldDisplayed(s.nextDisplayIdx, seg.Track)
		}
		s.nextDisplayIdx++
	}
}

// foldDisplayed streams one displayed segment into the online Summary:
// the one definition of displayed bitrate, time on track and switch
// counts (qoe.FromResult reads it back). Segments display in strictly
// ascending index order, so the fold equals a walk over a full Result's
// Displayed array (TestLeanSummaryMatchesFull keeps that walk as the
// oracle).
func (s *Session) foldDisplayed(index, track int) {
	dur := s.segDur
	if start := float64(index) * s.segDur; start+s.segDur > s.pres.Duration {
		dur = s.pres.Duration - start
	}
	s.sum.WeightedBitrateSec += s.declared[track] * dur
	s.sum.PlayedMediaSec += dur
	s.sum.TimeOnTrack[track] += dur
	if prev := s.sumPrevTrack; prev >= 0 && track != prev {
		s.sum.Switches++
		if d := track - prev; d > 1 || d < -1 {
			s.sum.NonConsecutive++
		}
	}
	s.sumPrevTrack = track
}

func (s *Session) startPlaying() {
	s.playing = true
	s.curPlay = PlayInterval{WallStart: s.net.Now(), MediaStart: s.playhead}
	if !s.started {
		s.started = true
		// Startup delay is measured from the session's own arrival, so a
		// fleet client joining at t=400 reports the same delay a solo
		// session (startAt 0) would.
		s.startupDelay = s.net.Now() - s.startAt
		s.sum.StartupDelay = s.startupDelay
		if s.res != nil {
			s.res.StartupDelay = s.startupDelay
			s.eventf("startup", "playback started, delay %.2fs", s.startupDelay)
		}
	} else if s.stallOpen {
		st := Stall{Start: s.stallStart, End: s.net.Now()}
		if s.res != nil {
			s.res.Stalls = append(s.res.Stalls, st)
		}
		s.sum.StallCount++
		s.sum.StallSec += st.End - st.Start
		s.stallOpen = false
		if s.res != nil {
			s.eventf("resume", "stall over after %.2fs", s.net.Now()-s.stallStart)
		}
	}
}

func (s *Session) stopPlaying(stall bool) {
	if !s.playing {
		return
	}
	s.playing = false
	s.curPlay.WallEnd = s.lastTime
	if s.res != nil {
		s.res.PlayIntervals = append(s.res.PlayIntervals, s.curPlay)
	}
	s.sum.PlayedSec += s.curPlay.WallEnd - s.curPlay.WallStart
	if stall {
		s.stallOpen = true
		s.stallStart = s.lastTime
		if s.res != nil {
			s.eventf("stall", "buffer empty at playhead %.1fs", s.playhead)
		}
	}
}

// eventf records an annotated timeline event. Callers check s.res first:
// in lean mode no event is kept, and the check keeps the boxing of the
// arguments, not only the fmt.Sprintf, out of the population hot path.
func (s *Session) eventf(kind, format string, args ...any) {
	s.res.Events = append(s.res.Events, Event{T: s.net.Now(), Kind: kind, Detail: fmt.Sprintf(format, args...)}) //vodlint:allow hotalloc — observer-only: every caller checks res != nil, which keeps lean sessions off this line
}

// maybeStartPlayback applies the startup/recovery gates (§3.3.1, §4.3).
func (s *Session) maybeStartPlayback() {
	if s.playing || s.finished {
		return
	}
	need, needSegs := s.cfg.StartupBufferSec, s.cfg.StartupSegments
	if s.started {
		need, needSegs = s.cfg.RecoverySec, s.cfg.RecoverySegments
	}
	allDownloaded := s.nextVideo >= s.segCount &&
		(!s.separateAudio() || s.nextAudio >= len(s.pres.Audio[0].Segments))
	if (s.bufferedSec() >= need-eps && s.bufferedSegments() >= needSegs) ||
		(allDownloaded && s.bufferedSec() > eps) {
		s.startPlaying()
	}
}

// updatePauseFlags runs the download controller's hysteresis (§3.3.2).
func (s *Session) updatePauseFlags() {
	ph := s.playheadAtNow()
	occV := math.Max(0, s.videoBuf.PlayableEnd(ph)-ph)
	s.pausedVideo = s.hysteresis(s.pausedVideo, occV, "video")
	if s.separateAudio() {
		occA := math.Max(0, s.audioBuf.PlayableEnd(ph)-ph)
		s.pausedAud = s.hysteresis(s.pausedAud, occA, "audio")
	}
}

func (s *Session) hysteresis(paused bool, occ float64, kind string) bool {
	if paused {
		if occ <= s.cfg.ResumeThresholdSec+1e-6 {
			if s.res != nil {
				s.eventf("resume-dl", "%s buffer %.1fs ≤ resume threshold %.0fs", kind, occ, s.cfg.ResumeThresholdSec)
			}
			return false
		}
		return true
	}
	if occ >= s.cfg.PauseThresholdSec-1e-6 {
		if s.res != nil {
			s.eventf("pause-dl", "%s buffer %.1fs ≥ pause threshold %.0fs", kind, occ, s.cfg.PauseThresholdSec)
		}
		return true
	}
	return false
}

// ---- request issuing ----

func (s *Session) issueRequests() {
	if s.downloadDead {
		return
	}
	if s.docNext < len(s.docQueue) {
		if !s.conn(0).Busy() {
			d := s.docQueue[s.docNext]
			s.docNext++
			s.startDoc(0, d)
		}
		return
	}
	s.updatePauseFlags()
	switch s.cfg.Scheduler {
	case SchedulerSingle:
		s.issueSingle()
	case SchedulerParallel:
		s.issueParallel()
	case SchedulerSplit:
		s.issueSplit()
	}
}

func (s *Session) startDoc(slot int, d docReq) {
	m := s.newMeta()
	m.kind, m.url, m.rs, m.re, m.body, m.dlIdx = reqDoc, d.url, d.rs, d.re, d.body, -1
	s.startTransfer(slot, d.wireSize, m)
}

// nextTaskSynced picks the content type that is further behind, counting
// both buffered and inflight media (§3.2's coordination best practice).
// It returns -1 when everything has been requested.
func (s *Session) nextTaskSynced() media.MediaType {
	vDone := s.nextVideo >= s.segCount
	if !s.separateAudio() {
		if vDone {
			return media.MediaType(-1)
		}
		return media.TypeVideo
	}
	aDone := s.nextAudio >= len(s.pres.Audio[0].Segments)
	vEnd := float64(s.nextVideo) * s.segDur
	aEnd := float64(s.nextAudio) * s.pres.Audio[0].SegmentDuration
	switch {
	case vDone && aDone:
		return media.MediaType(-1)
	case vDone:
		return media.TypeAudio
	case aDone:
		return media.TypeVideo
	case aEnd < vEnd:
		return media.TypeAudio
	default:
		return media.TypeVideo
	}
}

func (s *Session) issueSingle() {
	if s.conn(0).Busy() {
		return
	}
	switch s.nextTaskSynced() {
	case media.TypeAudio:
		if !s.pausedAud {
			s.issueSegment(media.TypeAudio, 0)
		}
	case media.TypeVideo:
		if !s.pausedVideo {
			s.issueSegment(media.TypeVideo, 0)
		}
	default:
		// Everything fetched; replacement may still want to work.
		if !s.pausedVideo {
			s.issueSegment(media.TypeVideo, 0)
		}
	}
}

func (s *Session) issueParallel() {
	if s.separateAudio() && s.cfg.Audio == AudioDesynced {
		// D1: the video pipeline prefetches greedily on N-1 connections
		// while audio trails on a single low-priority connection that
		// only fetches while audio is behind video — under low bandwidth
		// audio's 1/N share barely covers its bitrate, so the two
		// buffers drift tens of seconds apart (Figure 6).
		audioBehind := float64(s.nextAudio)*s.pres.Audio[0].SegmentDuration <
			float64(s.nextVideo)*s.segDur
		if !s.conn(0).Busy() && !s.pausedAud && audioBehind && s.nextAudio < len(s.pres.Audio[0].Segments) {
			s.issueSegment(media.TypeAudio, 0)
		}
		for slot := 1; slot < s.cfg.MaxConnections; slot++ {
			if s.conn(slot).Busy() || s.pausedVideo || s.nextVideo >= s.segCount {
				continue
			}
			s.issueSegment(media.TypeVideo, slot)
		}
		return
	}
	for slot := 0; slot < s.cfg.MaxConnections; slot++ {
		if s.conn(slot).Busy() {
			continue
		}
		task := s.nextTaskSynced()
		if task == media.TypeAudio && (s.audioInflight() || s.pausedAud) {
			task = media.TypeVideo
		}
		if task != media.TypeVideo && task != media.TypeAudio {
			return
		}
		if task == media.TypeVideo {
			// Synced multi-connection services use their connections to
			// separate audio from video, not to pipeline video: more
			// than one concurrent video fetch would split the link and
			// depress the bandwidth estimate (§3.2).
			if s.pausedVideo || s.nextVideo >= s.segCount || s.videoInflight() >= s.cfg.VideoPipeline {
				continue
			}
		}
		s.issueSegment(task, slot)
	}
}

func (s *Session) videoInflight() int {
	n := 0
	for _, m := range s.live {
		if m != nil && m.kind != reqDoc && m.typ == media.TypeVideo {
			n++
		}
	}
	return n
}

func (s *Session) audioInflight() bool {
	for _, m := range s.live {
		if m != nil && m.kind != reqDoc && m.typ == media.TypeAudio {
			return true
		}
	}
	return false
}

func (s *Session) issueSplit() {
	if s.group != nil {
		return
	}
	// All connections must be idle: the last startup document can still
	// be in flight on connection 0 when the queue empties.
	for _, c := range s.conns {
		if c != nil && c.Busy() {
			return
		}
	}
	task := s.nextTaskSynced()
	if task == media.TypeAudio && s.pausedAud {
		task = media.TypeVideo
	}
	if task == media.TypeVideo && (s.pausedVideo || s.nextVideo >= s.segCount) {
		return
	}
	if task != media.TypeVideo && task != media.TypeAudio {
		return
	}
	meta, size, ok := s.prepareSegment(task)
	if !ok {
		return
	}
	parts := s.cfg.MaxConnections
	if float64(parts) > size {
		parts = 1
	}
	// One split is in flight at a time, so the session's own record serves
	// every segment it splits.
	g := &s.split
	*g = splitGroup{meta: *meta, remaining: parts, started: s.net.Now(), bytes: size}
	if meta.kind == reqSeg && s.resolver != nil {
		// One cache verdict per segment; the ranged parts share it.
		g.route = s.resolver.Resolve(s.net.Now(), s.objectOf(meta), size)
	}
	s.group = g
	// Part weights: equal by default; SplitSkew > 0 inflates later
	// parts, modelling split points chosen without regard to the
	// per-connection bandwidth (§3.2) — the segment then finishes only
	// when the most overloaded connection does.
	s.splitWeights = resized(s.splitWeights, parts)
	weights := s.splitWeights
	wsum := 0.0
	for i := range weights {
		weights[i] = 1 + s.cfg.SplitSkew*float64(i)
		if weights[i] < 0.2 {
			weights[i] = 0.2
		}
		wsum += weights[i]
	}
	// Part boundaries are integer byte offsets so the ranged requests
	// tile the segment exactly.
	off := 0.0
	intOff := int64(0)
	for i := 0; i < parts; i++ {
		m := *meta
		m.kind = reqPart
		m.group = g
		off += size * weights[i] / wsum
		end := int64(off + 0.5)
		if i == parts-1 {
			end = int64(size + 0.5)
		}
		sz := float64(end - intOff)
		if m.rs >= 0 {
			m.rs = meta.rs + intOff
			m.re = meta.rs + end - 1
			if i == parts-1 {
				m.re = meta.re
				sz = float64(m.re - m.rs + 1)
			}
		}
		intOff = end
		pm := s.newMeta()
		*pm = m
		s.startTransfer(i, sz, pm)
	}
	s.freeMeta(meta) // parts carry copies; the original is done
}

// issueSegment prepares and starts the next segment of a type on a slot.
func (s *Session) issueSegment(t media.MediaType, slot int) {
	m, size, ok := s.prepareSegment(t)
	if !ok {
		return
	}
	// m may be a lazily fetched HLS media playlist instead of the segment.
	s.startTransfer(slot, size, m)
}

// prepareSegment resolves the next segment of a type into request
// metadata, running adaptation (and replacement for video), the lazy HLS
// playlist fetch, the request gate, and the download log. It advances the
// per-type cursor on success.
func (s *Session) prepareSegment(t media.MediaType) (*reqMeta, float64, bool) {
	var rend *manifest.Rendition
	var index int
	var repl bool
	if t == media.TypeAudio {
		index = s.nextAudio
		rend = s.pres.Audio[0]
		if index >= len(rend.Segments) {
			return nil, 0, false
		}
	} else {
		prevTrack := s.lastVideoTrack
		track := s.selectVideoTrack()
		index = s.nextVideo
		if s.cfg.Scheduler == SchedulerSingle {
			act := s.considerReplacement(track)
			switch act.Op {
			case replacement.OpReplace:
				index, repl = act.Index, true
			case replacement.OpDropTail:
				dropped := s.videoBuf.DropFromIndex(act.Index)
				if len(dropped) > 0 {
					s.discard(dropped)
					if s.res != nil {
						s.eventf("sr-drop", "dropped %d buffered segments from index %d", len(dropped), act.Index)
					}
					s.nextVideo = act.Index
					index = act.Index
				}
			}
		}
		if !repl && index >= s.segCount {
			return nil, 0, false
		}
		rend = s.pres.Video[track]
		// HLS fetches a track's media playlist before its first segment
		// from that track.
		if s.pres.Protocol == manifest.HLS {
			if pl := rend.PlaylistURL; pl != "" && !s.fetchedDocs[pl] {
				s.fetchedDocs[pl] = true
				if body, ok := s.org.Document(pl); ok {
					m := s.newMeta()
					m.kind, m.url, m.rs, m.re, m.body, m.dlIdx = reqDoc, pl, -1, -1, body, -1
					return m, float64(len(body)), true
				}
			}
		}
		s.lastVideoTrack = track
		_ = prevTrack
	}
	seg := rend.Segments[index]
	m := s.newMeta()
	m.kind, m.typ, m.track, m.index, m.replace = reqSeg, t, rend.ID, index, repl
	m.url, m.rs, m.re, m.dlIdx = seg.URL, -1, -1, -1
	if seg.URL == "" {
		m.url = rend.MediaURL
		m.rs, m.re = seg.Offset, seg.Offset+seg.Length-1
	}
	if gate := s.cfg.RequestGate; gate != nil {
		req := Request{URL: m.url, RangeStart: m.rs, RangeEnd: m.re, IsSegment: true, SegmentSeq: s.segSeq}
		if !gate(req) {
			if s.res != nil {
				now := s.net.Now()
				s.res.Transactions = append(s.res.Transactions, traffic.Transaction{
					Start: now, End: now, Method: "GET", URL: m.url,
					RangeStart: m.rs, RangeEnd: m.re, Rejected: true,
				})
				s.eventf("reject", "origin rejected segment request #%d", s.segSeq)
			}
			s.downloadDead = true
			s.freeMeta(m)
			return nil, 0, false
		}
	}
	s.segSeq++
	if t == media.TypeAudio {
		s.nextAudio++
	} else if !repl {
		s.nextVideo = index + 1
	}
	m.dlIdx = -1
	if s.res != nil {
		m.dlIdx = len(s.res.Downloads)
		s.res.Downloads = append(s.res.Downloads, Download{
			Type: t, Track: m.track, Index: index,
			Declared: rend.DeclaredBitrate, Duration: seg.Duration,
			Bytes: float64(seg.Size), Start: s.net.Now(), Replacement: repl,
		})
	}
	return m, float64(seg.Size), true
}

func (s *Session) selectVideoTrack() int {
	occ := s.bufferedSec()
	est := s.cfg.Estimator.Estimate()
	if s.videoSamples < s.cfg.MinEstimateSamples {
		est = 0 // not enough history: stay on the startup track
	}
	ctx := adaptation.Context{
		Declared:        s.declared,
		SegmentDuration: s.segDur,
		SegmentCount:    s.segCount,
		NextIndex:       s.nextVideo,
		BufferSec:       occ,
		BufferTrend:     occ - s.prevDecisionOcc,
		EstimateBps:     est,
		LastTrack:       s.lastVideoTrack,
		StartupTrack:    s.cfg.StartupTrack,
	}
	ctx.Average = s.avgBitrates
	ctx.SegmentSize = s.segSizeFn
	s.prevDecisionOcc = occ
	return s.cfg.Algorithm.Select(ctx)
}

func (s *Session) considerReplacement(selected int) replacement.Action {
	if _, isNone := s.cfg.Replacement.(replacement.None); isNone {
		return replacement.Action{Op: replacement.OpNext}
	}
	ph := s.playheadAtNow()
	buffered := s.replScratch[:0]
	for _, b := range s.videoBuf.segs {
		if b.End <= ph {
			continue
		}
		buffered = append(buffered, replacement.BufferedSegment{Index: b.Index, Track: b.Track, Start: b.Start})
	}
	s.replScratch = buffered
	act := s.cfg.Replacement.Consider(replacement.View{
		Buffered:        buffered,
		Playhead:        ph,
		BufferSec:       s.bufferedSec(),
		SelectedTrack:   selected,
		LastTrack:       s.lastVideoTrack,
		NextIndex:       s.nextVideo,
		SegmentDuration: s.segDur,
	})
	if act.Op == replacement.OpReplace && !s.cfg.MidBufferDiscard {
		// The buffer cannot drop a middle segment; a faithful player
		// falls back to not replacing (ExoPlayer v2's choice, §4.1.2).
		return replacement.Action{Op: replacement.OpNext}
	}
	return act
}

func (s *Session) discard(dropped []BufferedSegment) {
	for _, d := range dropped {
		s.wastedBytes += d.Bytes
		if s.res == nil {
			continue
		}
		for i := len(s.res.Downloads) - 1; i >= 0; i-- {
			dl := &s.res.Downloads[i]
			if dl.Type == media.TypeVideo && dl.Index == d.Index && dl.Track == d.Track && !dl.Discarded {
				dl.Discarded = true
				break
			}
		}
	}
}

// ---- completion handling ----

func (s *Session) onComplete(tr *simnet.Transfer) {
	s.inflight--
	m := tr.Meta.(*reqMeta)
	s.live[m.slot] = nil
	if !s.cfg.Persistent {
		// A non-persistent client closes after every response, and the
		// closed connection goes back to the network for its next dial.
		if m.slot < len(s.conns) && s.conns[m.slot] == tr.Conn {
			s.conns[m.slot] = nil
		}
		s.net.ReleaseConn(tr.Conn)
	}
	switch m.kind {
	case reqDoc:
		if s.res != nil {
			s.res.Transactions = append(s.res.Transactions, traffic.Transaction{
				Start: tr.Started, End: tr.Completed, Method: "GET", URL: m.url,
				RangeStart: m.rs, RangeEnd: m.re, Bytes: int64(tr.Size), Body: m.body,
			})
		}
		s.totalBytes += tr.Size
	case reqSeg:
		if s.res != nil {
			s.res.Transactions = append(s.res.Transactions, traffic.Transaction{
				Start: tr.Started, End: tr.Completed, Method: "GET", URL: m.url,
				RangeStart: m.rs, RangeEnd: m.re, Bytes: int64(tr.Size),
			})
		}
		// Only video chunks feed the estimator: audio segments are tiny,
		// latency-dominated exchanges that would bias the estimate low.
		if m.typ == media.TypeVideo {
			s.addVideoSample(tr.Size*8, tr.Started, tr.Completed)
		}
		s.finishSegmentCore(m, tr.Size, tr.Completed)
	case reqPart:
		if s.res != nil {
			s.res.Transactions = append(s.res.Transactions, traffic.Transaction{
				Start: tr.Started, End: tr.Completed, Method: "GET", URL: m.url,
				RangeStart: m.rs, RangeEnd: m.re, Bytes: int64(tr.Size),
			})
		}
		g := m.group
		g.remaining--
		if g.remaining == 0 {
			s.group = nil
			if g.meta.typ == media.TypeVideo {
				s.addVideoSample(g.bytes*8, g.started, s.net.Now())
			}
			s.finishSegmentCore(&g.meta, g.bytes, s.net.Now())
		}
	}
	s.freeMeta(m)
}

// addVideoSample feeds the bandwidth estimator with the aggregate
// delivery rate since the previous video completion: total bytes the
// link delivered (all connections) over the smaller of the exchange
// duration and the inter-completion interval. Pipelined parallel
// downloads (D1) thus register the aggregate arrival rate rather than a
// 1/N per-connection share, while idle gaps before a download do not
// drag the estimate down.
func (s *Session) addVideoSample(bits, started, completed float64) {
	delivered := s.net.Delivered()
	aggBits := (delivered - s.deliveredAtDone) * 8
	dur := completed - started
	if s.lastVideoDone > 0 {
		if d := completed - s.lastVideoDone; d < dur {
			dur = d
		}
	} else {
		aggBits = bits
	}
	if dur < 1e-3 {
		dur = 1e-3
	}
	if aggBits <= 0 {
		aggBits = bits
	}
	s.lastVideoDone = completed
	s.deliveredAtDone = delivered
	s.videoSamples++
	s.cfg.Estimator.Add(aggBits, dur)
}

// finishSegmentCore updates buffers and playback state once a segment
// (or a completed split group) has fully arrived.
func (s *Session) finishSegmentCore(m *reqMeta, size, completed float64) {
	s.totalBytes += size
	if s.res != nil && m.dlIdx >= 0 && m.dlIdx < len(s.res.Downloads) {
		s.res.Downloads[m.dlIdx].End = completed
		if m.typ == media.TypeVideo && !m.replace {
			if s.firstFwd[m.index] == 0 {
				s.firstFwd[m.index] = int32(m.dlIdx) + 1
			}
		}
	}
	var rend *manifest.Rendition
	var buf *Buffer
	if m.typ == media.TypeAudio {
		rend, buf = s.pres.Audio[0], &s.audioBuf
	} else {
		rend, buf = s.pres.Video[m.track], &s.videoBuf
	}
	seg := rend.Segments[m.index]
	bs := BufferedSegment{
		Type: m.typ, Track: m.track, Index: m.index,
		Start: seg.Start, End: seg.Start + seg.Duration,
		Bytes: size, DownloadedAt: completed,
	}
	ph := s.playheadAtNow()
	if m.replace && bs.Start < ph {
		// The position already played; the whole re-download is waste.
		s.wastedBytes += size
		if s.res != nil && m.dlIdx >= 0 {
			s.res.Downloads[m.dlIdx].Discarded = true
		}
	} else {
		old, replaced := buf.Insert(bs)
		if replaced {
			s.wastedBytes += old.Bytes
			if s.res != nil {
				for i := len(s.res.Downloads) - 1; i >= 0; i-- {
					dl := &s.res.Downloads[i]
					if dl.Type == m.typ && dl.Index == m.index && dl.Track == old.Track && !dl.Discarded && dl.End > 0 {
						dl.Discarded = true
						break
					}
				}
			}
			if s.res != nil {
				s.eventf("sr-replace", "segment %d: track %d → %d", m.index, old.Track, m.track)
			}
		} else if s.res != nil && m.typ == media.TypeVideo && !m.replace {
			// The prev-track scan walks the download log, so it exists
			// only when the log does — it feeds nothing but the event.
			if prev := s.prevDownloadedTrack(m.index); prev >= 0 && prev != m.track {
				s.eventf("switch", "segment %d downloaded at track %d (prev %d)", m.index, m.track, prev)
			}
		}
	}
	s.videoBuf.GC(ph)
	if s.separateAudio() {
		s.audioBuf.GC(ph)
	}
	s.maybeStartPlayback()
}

// prevDownloadedTrack returns the track of the forward video download
// with the highest index below the given one, or -1.
func (s *Session) prevDownloadedTrack(index int) int {
	for i := index - 1; i >= 0; i-- {
		if at := s.firstFwd[i]; at != 0 {
			return s.res.Downloads[at-1].Track
		}
	}
	return -1
}

func (s *Session) finalize() {
	end := math.Min(s.net.Now(), s.endAt())
	s.advancePlayback(end)
	if s.playing {
		s.playing = false
		s.curPlay.WallEnd = s.lastTime
		if s.res != nil {
			s.res.PlayIntervals = append(s.res.PlayIntervals, s.curPlay)
		}
		s.sum.PlayedSec += s.curPlay.WallEnd - s.curPlay.WallStart
	}
	if s.stallOpen {
		if s.res != nil {
			s.res.Stalls = append(s.res.Stalls, Stall{Start: s.stallStart, End: end})
		}
		s.sum.StallCount++
		s.sum.StallSec += end - s.stallStart
		s.stallOpen = false
	}
	s.sum.TotalBytes = s.totalBytes
	s.sum.WastedBytes = s.wastedBytes
	if s.res != nil {
		s.res.EndTime = end
		s.res.Summary = s.sum
	}
}

package fleet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/cdn"
	"repro/internal/qoe"
)

// This file is the memory-bounded reduction layer: a fleet of any size
// folds into a fixed number of fixed-size accumulators, so a million-
// session run costs the same aggregate memory as a hundred-session run.
//
// The per-service accumulators are columnar (struct-of-arrays): one
// int64 slab carries every histogram bin and counter, one float64 slab
// carries every Welford column, for all services × metrics. A session
// observation touches one row of each column; a merge is a handful of
// flat slice loops over contiguous memory — no per-metric pointers, no
// per-histogram allocations. The slabs are dense wherever something is
// still folding into them (the cell in flight, a shard, the fleet); a
// finished cell is compacted to the entries it actually holds
// (finishedCell) — the only form a cell is merged, cached or returned
// in. All merges happen in deterministic cell-index order within a
// shard and shard-index order across shards (see Run), which makes the
// floating-point fold sequence — and therefore the report bytes —
// independent of the worker count and of the steal schedule.

// hist is a fixed-bin histogram over [Lo, Hi). Out-of-range samples are
// counted in Under/Over so totals are never silently lost. The fleet-
// level per-cell metrics (fairness, utilization) use it directly; the
// per-service hot path uses the same binning arithmetic on the columnar
// slabs.
type hist struct {
	Lo, Hi float64
	Counts []int64
	Under  int64
	Over   int64
}

func newHist(lo, hi float64, bins int) *hist {
	return &hist{Lo: lo, Hi: hi, Counts: make([]int64, bins)}
}

func (h *hist) add(v float64) {
	if v < h.Lo || math.IsNaN(v) {
		h.Under++
		return
	}
	if v >= h.Hi {
		h.Over++
		return
	}
	i := int((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i >= len(h.Counts) { // guard the v≈Hi float edge
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Under += o.Under
	h.Over += o.Over
}

// quantileWalk returns the p-th percentile (0..100) of a binned
// distribution by walking the cumulative counts: under samples sit at
// lo, over samples at hi, and a bin resolves to its upper edge. Integer
// walk — fully deterministic.
func quantileWalk(p, lo, hi float64, counts []int64, under, over int64) float64 {
	n := under + over
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(p / 100 * float64(n)))
	if target < 1 {
		target = 1
	}
	cum := under
	if cum >= target {
		return lo
	}
	w := (hi - lo) / float64(len(counts))
	for i, c := range counts {
		cum += c
		if cum >= target {
			return lo + float64(i+1)*w
		}
	}
	return hi
}

// welford is Welford's online mean/variance, merged pairwise with the
// Chan et al. update. Merge order is fixed by the caller.
type welford struct {
	N    int64
	Mean float64
	M2   float64
}

func (w *welford) add(v float64) {
	w.N++
	d := v - w.Mean
	w.Mean += d / float64(w.N)
	w.M2 += d * (v - w.Mean)
}

func (w *welford) merge(o welford) {
	if o.N == 0 {
		return
	}
	if w.N == 0 {
		*w = o
		return
	}
	n := float64(w.N + o.N)
	d := o.Mean - w.Mean
	w.Mean += d * float64(o.N) / n
	w.M2 += o.M2 + d*d*float64(w.N)*float64(o.N)/n
	w.N += o.N
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func stdOf(n int64, m2 float64) float64 {
	if n < 2 {
		return 0
	}
	return math.Sqrt(m2 / float64(n-1))
}

// metricAgg pairs the exact online moments with a histogram — the
// fleet-level singles (fairness, utilization) that don't justify a
// columnar layout.
type metricAgg struct {
	w welford
	h *hist
}

func (m *metricAgg) add(v float64) {
	m.w.add(v)
	m.h.add(v)
}

func (m *metricAgg) merge(o *metricAgg) {
	m.w.merge(o.w)
	m.h.merge(o.h)
}

func (m *metricAgg) dist() Dist {
	return Dist{
		Count:  m.w.N,
		Mean:   m.w.Mean,
		Std:    stdOf(m.w.N, m.w.M2),
		P10:    quantileWalk(10, m.h.Lo, m.h.Hi, m.h.Counts, m.h.Under, m.h.Over),
		P50:    quantileWalk(50, m.h.Lo, m.h.Hi, m.h.Counts, m.h.Under, m.h.Over),
		P90:    quantileWalk(90, m.h.Lo, m.h.Hi, m.h.Counts, m.h.Under, m.h.Over),
		Lo:     m.h.Lo,
		Hi:     m.h.Hi,
		Counts: m.h.Counts,
		Under:  m.h.Under,
		Over:   m.h.Over,
	}
}

// Histogram geometry. Bounds are part of the report schema: changing
// them changes the bytes (EngineVersion covers the cache side).
const (
	bitrateHiMbps = 10  // ladder tops sit well below 10 Mbit/s
	startupHiSec  = 30  // startup delays beyond 30 s land in Over
	switchesHiPM  = 12  // switches per playback minute
	utilHi        = 1.2 // >1 would mean a conservation violation
)

const (
	mBitrate = iota
	mStall
	mStartup
	mSwitches
	nMetrics
)

var (
	metricBins = [nMetrics]int{40, 20, 30, 24}
	metricLo   = [nMetrics]float64{0, 0, 0, 0}
	metricHi   = [nMetrics]float64{bitrateHiMbps, 1, startupHiSec, switchesHiPM}
	// metricOff is each metric's bin offset inside a service's stretch
	// of the histogram slab; binsPerSvc is the stretch length.
	metricOff  = [nMetrics]int{0, 40, 60, 90}
	binsPerSvc = 114
	// metricName labels a metric in errors, by its report field.
	metricName = [nMetrics]string{"bitrate_mbps", "stall_ratio", "startup_delay_sec", "switches_per_min"}
)

// svcCols holds every per-service accumulator for the whole mix in two
// slabs. Row r = svc*nMetrics + metric addresses the Welford and
// under/over columns; the histogram bins for (svc, metric) live at
// counts[svc*binsPerSvc+metricOff[metric] : +metricBins[metric]].
type svcCols struct {
	nsvc int

	// ints is the whole int64 slab, which the columns below slice up in
	// this order: n first, so that a row's Welford count is the slab
	// entry with the row's own index.
	ints []int64

	n     []int64 // Welford count, per row
	under []int64 // below-range samples, per row
	over  []int64 // above-range samples, per row

	sessions []int64 // per service: every observed session
	started  []int64 // per service: sessions that reached first frame

	counts []int64 // histogram slab

	mean []float64 // Welford mean, per row
	m2   []float64 // Welford M2, per row
}

func newSvcCols(nsvc int) *svcCols {
	rows := nsvc * nMetrics
	// One int64 slab and one float64 slab back every column, so merges
	// stream through contiguous memory.
	ints := make([]int64, 3*rows+2*nsvc+nsvc*binsPerSvc)
	floats := make([]float64, 2*rows)
	c := &svcCols{nsvc: nsvc, ints: ints}
	c.n, ints = ints[:rows], ints[rows:]
	c.under, ints = ints[:rows], ints[rows:]
	c.over, ints = ints[:rows], ints[rows:]
	c.sessions, ints = ints[:nsvc], ints[nsvc:]
	c.started, ints = ints[:nsvc], ints[nsvc:]
	c.counts = ints
	c.mean, floats = floats[:rows], floats[rows:]
	c.m2 = floats
	return c
}

// add folds one sample of a metric for a service: a Welford column
// update plus one histogram bin increment, same arithmetic as
// welford.add and hist.add.
//
//vodlint:hotpath — columnar fold: several calls per session, a million sessions per report
func (c *svcCols) add(svc, metric int, v float64) {
	row := svc*nMetrics + metric
	c.n[row]++
	d := v - c.mean[row]
	c.mean[row] += d / float64(c.n[row])
	c.m2[row] += d * (v - c.mean[row])

	lo, hi := metricLo[metric], metricHi[metric]
	if v < lo || math.IsNaN(v) {
		c.under[row]++
		return
	}
	if v >= hi {
		c.over[row]++
		return
	}
	bins := metricBins[metric]
	i := int((v - lo) / (hi - lo) * float64(bins))
	if i >= bins { // guard the v≈hi float edge
		i = bins - 1
	}
	c.counts[svc*binsPerSvc+metricOff[metric]+i]++
}

// merge folds o into c: flat loops over the slabs, with the Chan et al.
// pairwise update per Welford row. Callers fix the merge order. It folds
// a finished shard into the fleet, and is the oracle mergeCell is tested
// against.
//
//vodlint:hotpath — shard-aggregate merge: once per shard on the prefix-fold path
func (c *svcCols) merge(o *svcCols) {
	for i := range c.sessions {
		c.sessions[i] += o.sessions[i]
		c.started[i] += o.started[i]
	}
	for r := range c.n {
		if o.n[r] == 0 {
			continue
		}
		if c.n[r] == 0 {
			c.n[r], c.mean[r], c.m2[r] = o.n[r], o.mean[r], o.m2[r]
			continue
		}
		n := float64(c.n[r] + o.n[r])
		d := o.mean[r] - c.mean[r]
		c.mean[r] += d * float64(o.n[r]) / n
		c.m2[r] += o.m2[r] + d*d*float64(c.n[r])*float64(o.n[r])/n
		c.n[r] += o.n[r]
	}
	for i := range c.under {
		c.under[i] += o.under[i]
		c.over[i] += o.over[i]
	}
	for i, v := range o.counts {
		c.counts[i] += v
	}
}

// mergeCell folds a finished cell into c. It is merge restricted to the
// slab entries the cell holds: the same Chan et al. update, on the same
// operands, for every row the cell touched, and an integer add for every
// other non-zero entry — rows and entries the cell left at zero are the
// ones merge skips or adds zero for, so the two leave c bit-identical.
//
//vodlint:hotpath — cell merge: once per cell, and all a warm sweep point does
func (c *svcCols) mergeCell(f *finishedCell) {
	b, i, off := f.ints, 0, 0
	// The slab starts with the Welford counts, so the first entries are
	// the touched rows, one (mean, m2) pair each. Nearly every gap and
	// count is below 128, one byte each: that case is decoded in line.
	for k := 0; k < len(f.moments); k += 2 {
		gap, v := uint64(b[i]), uint64(b[i+1])
		if i += 2; gap|v >= 0x80 {
			gap, v, i = entryLong(b, i-2)
		}
		r := off + int(gap)
		off = r + 1
		on, omean, om2 := int64(v), f.moments[k], f.moments[k+1]
		if c.n[r] == 0 {
			c.n[r], c.mean[r], c.m2[r] = on, omean, om2
			continue
		}
		n := float64(c.n[r] + on)
		d := omean - c.mean[r]
		c.mean[r] += d * float64(on) / n
		c.m2[r] += om2 + d*d*float64(c.n[r])*float64(on)/n
		c.n[r] += on
	}
	for i < len(b) {
		gap, v := uint64(b[i]), uint64(b[i+1])
		if i += 2; gap|v >= 0x80 {
			gap, v, i = entryLong(b, i-2)
		}
		off += int(gap)
		c.ints[off] += int64(v)
		off++
	}
}

// entryLong decodes the (gap, value) pair at b[i:] when either takes
// more than one byte, and returns it with the index just past it.
func entryLong(b []byte, i int) (gap, v uint64, next int) {
	gap, w := binary.Uvarint(b[i:])
	i += w
	v, w = binary.Uvarint(b[i:])
	return gap, v, i + w
}

// dist renders one (service, metric) cell of the columns as a Dist.
func (c *svcCols) dist(svc, metric int) Dist {
	row := svc*nMetrics + metric
	lo, hi := metricLo[metric], metricHi[metric]
	bins := c.counts[svc*binsPerSvc+metricOff[metric] : svc*binsPerSvc+metricOff[metric]+metricBins[metric]]
	return Dist{
		Count:  c.n[row],
		Mean:   c.mean[row],
		Std:    stdOf(c.n[row], c.m2[row]),
		P10:    quantileWalk(10, lo, hi, bins, c.under[row], c.over[row]),
		P50:    quantileWalk(50, lo, hi, bins, c.under[row], c.over[row]),
		P90:    quantileWalk(90, lo, hi, bins, c.under[row], c.over[row]),
		Lo:     lo,
		Hi:     hi,
		Counts: bins,
		Under:  c.under[row],
		Over:   c.over[row],
	}
}

// cellAgg is the scratch a cell folds into while it runs: the dense
// columnar per-service accumulators plus the cell-level samples. finish
// compacts it into the cell's finishedCell and clears it, so a shard
// reuses one cellAgg for all its cells (begin … observe … finish, per
// cell). bitrates is bounded by the cell size (ClientsPerCell), not the
// fleet size.
type cellAgg struct {
	cols       *svcCols
	bitrates   []float64 // per started client, for the Jain index
	full       int64     // sessions simulated at full fidelity
	background int64     // sessions simulated as background flows

	// Cell-level QoE moments, kept so the fleet fold can couple per-cell
	// hit ratio to per-cell QoE when the run has a cache tier.
	cellStartup welford // per started session, within this cell
	cellStall   welford // per started session with playback, within this cell

	enc []byte    // finish's encoding buffers, reused
	mom []float64 // "
}

// begin readies the scratch for a cell over nsvc services. The zero
// cellAgg is a valid scratch: the slabs are allocated by the first cell
// that uses it, so a shard served entirely from the CellCache never pays
// for them. (A cell that fails leaves the scratch dirty; its shard, the
// scratch's only user, stops there.)
func (a *cellAgg) begin(nsvc int) {
	if a.cols == nil {
		a.cols = newSvcCols(nsvc)
	}
}

// observe folds one finished session. Sessions that never displayed a
// frame (StartupDelay < 0 — the viewer left before startup) count
// toward sessions but contribute no metric samples; the started/sessions
// ratio reports them. Full sessions arrive here via qoe.FromSummary over
// the player's online digest; background flows via the same path over
// their coarse digest — the fold cannot tell them apart.
//
//vodlint:hotpath — per-session fold into the columnar slabs
func (a *cellAgg) observe(svcIdx int, rep qoe.Report) {
	a.cols.sessions[svcIdx]++
	if rep.StartupDelay < 0 {
		return
	}
	a.cols.started[svcIdx]++
	a.cols.add(svcIdx, mBitrate, rep.AvgBitrate/1e6)
	a.bitrates = append(a.bitrates, rep.AvgBitrate)
	if denom := rep.PlayedSec + rep.StallSec; denom > 0 {
		a.cols.add(svcIdx, mStall, rep.StallSec/denom)
		a.cellStall.add(rep.StallSec / denom)
	}
	a.cols.add(svcIdx, mStartup, rep.StartupDelay)
	a.cellStartup.add(rep.StartupDelay)
	if rep.PlayedSec > 0 {
		a.cols.add(svcIdx, mSwitches, float64(rep.Switches)/(rep.PlayedSec/60))
	}
}

// finishedCell is a cell once its simulation is done: immutable, and
// compact — it holds what the cell's sessions touched, not the dense
// slabs they were folded in, so a cached cell costs what a cell of its
// size carries (≈ 1 KiB for 24 sessions over 12 services, against
// 13 KiB dense). It is the one form fleetAgg.merge, CellCache and
// runCell see, whatever the cell's size.
type finishedCell struct {
	// ints lists the non-zero entries of the cell's int64 slab in slab
	// order, each as two uvarints: the count of zero entries skipped
	// since the previous one, then the value. The slab begins with the
	// Welford counts, so the first len(moments)/2 entries are the touched
	// rows; moments holds their (mean, m2) pairs in the same order.
	ints    []byte
	moments []float64

	started    bool    // some session reached first frame: jain is a sample
	jain       float64 // Jain's index over the started sessions' bitrates
	delivered  float64 // bytes the shared edge actually carried
	offered    float64 // edge capacity integral over the cell run, bytes
	full       int64
	background int64

	// Edge-cache tier (cdnOn when the run has a cdn config): the cell's
	// cache counters and the cell-level QoE moments they are coupled to.
	cdnOn       bool
	cdnStats    cdn.Stats
	cellStartup welford
	cellStall   welford
}

// bytes is the memory the finished cell holds: the struct and its two
// backing arrays.
func (f *finishedCell) bytes() int64 {
	return int64(unsafe.Sizeof(*f)) + int64(len(f.ints)) + 8*int64(len(f.moments))
}

// finish closes the cell: it records the cell-level samples — delivered
// bytes (utilization = delivered / offered), the edge capacity integral
// in bytes, the cache tier's counters if there is one — compacts the
// scratch into the cell's finishedCell and clears the scratch for the
// next cell. A touched Welford row whose mean or m2 is not finite means
// a NaN or ±Inf sample was folded somewhere in the cell: that is
// reported here, naming the service (of services, indexed like the
// scratch) and the metric, instead of failing in json.Marshal once the
// whole fleet has run.
func (a *cellAgg) finish(services []string, deliveredBytes, capacityIntegralBps float64, cache *cdn.Stats) (*finishedCell, error) {
	f := &finishedCell{
		started:     len(a.bitrates) > 0,
		delivered:   deliveredBytes,
		offered:     capacityIntegralBps / 8,
		full:        a.full,
		background:  a.background,
		cellStartup: a.cellStartup,
		cellStall:   a.cellStall,
	}
	if f.started {
		f.jain = jain(a.bitrates)
	}
	if cache != nil {
		f.cdnOn, f.cdnStats = true, *cache
	}
	c := a.cols
	var err error
	enc, mom, next := a.enc[:0], a.mom[:0], 0
	for off, v := range c.ints {
		if v == 0 {
			continue
		}
		enc = binary.AppendUvarint(enc, uint64(off-next))
		enc = binary.AppendUvarint(enc, uint64(v))
		next = off + 1
		if off < len(c.n) { // a touched row
			mean, m2 := c.mean[off], c.m2[off]
			mom = append(mom, mean, m2)
			if err == nil && !(isFinite(mean) && isFinite(m2)) {
				err = fmt.Errorf("service %s %s: non-finite moments (mean %v, m2 %v) over %d samples: a NaN or Inf sample was folded",
					services[off/nMetrics], metricName[off%nMetrics], mean, m2, v)
			}
		}
	}
	f.ints, f.moments = slices.Clone(enc), slices.Clone(mom)
	clear(c.ints)
	clear(c.mean)
	clear(c.m2)
	*a = cellAgg{cols: c, bitrates: a.bitrates[:0], enc: enc, mom: mom}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// nHitBuckets fixes the hit-ratio bucket grid of the QoE coupling
// section: [0,0.2) … [0.8,1] — part of the report schema.
const nHitBuckets = 5

// fleetAgg folds finished cells in cell-index order; shard aggregates
// fold into the final fleetAgg in shard-index order.
type fleetAgg struct {
	cols        *svcCols
	fairness    metricAgg
	utilization metricAgg
	totalBytes  float64
	cellsMerged int
	full        int64
	background  int64

	// Edge-cache fold: fleet-wide counters, the per-cell hit-ratio
	// distribution, and the raw second moments for the Pearson
	// correlation of cell hit ratio against cell mean startup and cell
	// mean stall ratio. Every term is commutative-sum data, but the
	// fold order is fixed anyway by the shard prefix merge.
	cdnOn                              bool
	cdnStats                           cdn.Stats
	cellHit                            metricAgg
	corrN                              int64
	sumH, sumH2, sumQs, sumQs2, sumHQs float64
	sumQt, sumQt2, sumHQt              float64
	bktCells                           [nHitBuckets]int64
	bktStartup                         [nHitBuckets]float64
	bktStall                           [nHitBuckets]float64
}

func newFleetAgg(nsvc int) *fleetAgg {
	return &fleetAgg{
		cols:        newSvcCols(nsvc),
		fairness:    metricAgg{h: newHist(0, 1, 20)},
		utilization: metricAgg{h: newHist(0, utilHi, 24)},
		cellHit:     metricAgg{h: newHist(0, 1, 20)}, // fully-hit cells land in Over, like jain == 1
	}
}

// hitBucket maps a hit ratio to its coupling bucket.
func hitBucket(h float64) int {
	i := int(h * nHitBuckets)
	if i >= nHitBuckets {
		i = nHitBuckets - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

func (a *fleetAgg) merge(c *finishedCell) {
	a.cols.mergeCell(c)
	if c.started {
		a.fairness.add(c.jain)
	}
	if c.offered > 0 {
		a.utilization.add(c.delivered / c.offered)
	}
	a.totalBytes += c.delivered
	a.cellsMerged++
	a.full += c.full
	a.background += c.background
	if c.cdnOn {
		a.cdnOn = true
		a.cdnStats.Add(c.cdnStats)
		h := c.cdnStats.HitRatio()
		a.cellHit.add(h)
		if c.cellStartup.N > 0 {
			qs, qt := c.cellStartup.Mean, c.cellStall.Mean
			a.corrN++
			a.sumH += h
			a.sumH2 += h * h
			a.sumQs += qs
			a.sumQs2 += qs * qs
			a.sumHQs += h * qs
			a.sumQt += qt
			a.sumQt2 += qt * qt
			a.sumHQt += h * qt
			b := hitBucket(h)
			a.bktCells[b]++
			a.bktStartup[b] += qs
			a.bktStall[b] += qt
		}
	}
}

// mergeFleet folds another fleetAgg (a completed shard) into a.
func (a *fleetAgg) mergeFleet(o *fleetAgg) {
	a.cols.merge(o.cols)
	a.fairness.merge(&o.fairness)
	a.utilization.merge(&o.utilization)
	a.totalBytes += o.totalBytes
	a.cellsMerged += o.cellsMerged
	a.full += o.full
	a.background += o.background
	if o.cdnOn {
		a.cdnOn = true
		a.cdnStats.Add(o.cdnStats)
		a.cellHit.merge(&o.cellHit)
		a.corrN += o.corrN
		a.sumH += o.sumH
		a.sumH2 += o.sumH2
		a.sumQs += o.sumQs
		a.sumQs2 += o.sumQs2
		a.sumHQs += o.sumHQs
		a.sumQt += o.sumQt
		a.sumQt2 += o.sumQt2
		a.sumHQt += o.sumHQt
		for i := 0; i < nHitBuckets; i++ {
			a.bktCells[i] += o.bktCells[i]
			a.bktStartup[i] += o.bktStartup[i]
			a.bktStall[i] += o.bktStall[i]
		}
	}
}

// pearson computes the correlation coefficient from raw second
// moments; 0 when either variable is constant (or n < 2).
func pearson(n int64, sx, sx2, sy, sy2, sxy float64) float64 {
	if n < 2 {
		return 0
	}
	fn := float64(n)
	cov := fn*sxy - sx*sy
	vx := fn*sx2 - sx*sx
	vy := fn*sy2 - sy*sy
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// jain computes Jain's fairness index: (Σx)² / (n·Σx²). 1 means every
// client achieved the same bitrate; 1/n means one client took it all.
func jain(xs []float64) float64 {
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 1 // everyone equally got nothing
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// Dist is the JSON form of one metric's population distribution.
type Dist struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
	P10   float64 `json:"p10"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	// Counts are the fixed histogram bins over [Lo, Hi); Under/Over
	// count the clipped tails.
	Counts []int64 `json:"counts"`
	Under  int64   `json:"under,omitempty"`
	Over   int64   `json:"over,omitempty"`
}

// ServiceStats is one service's slice of the population.
type ServiceStats struct {
	Service         string `json:"service"`
	Sessions        int64  `json:"sessions"`
	Started         int64  `json:"started"`
	BitrateMbps     Dist   `json:"bitrate_mbps"`
	StallRatio      Dist   `json:"stall_ratio"`
	StartupDelaySec Dist   `json:"startup_delay_sec"`
	SwitchesPerMin  Dist   `json:"switches_per_min"`
}

// FocusSample is one 1 Hz point of a focus session's buffer timeline.
type FocusSample struct {
	T         float64 `json:"t"`
	Playhead  float64 `json:"playhead"`
	BufferSec float64 `json:"buffer_sec"`
}

// FocusSession is the retained full-fidelity record of one seeded focus
// sample member: per-session QoE plus the displayed-track and buffer
// timelines the population aggregates discard. Focus members that drew
// the background tier are skipped (they have no full Result), so the
// focus list never perturbs the population sections.
type FocusSession struct {
	Cell            int           `json:"cell"`
	Member          int           `json:"member"`
	Service         string        `json:"service"`
	Trace           int           `json:"trace"`
	ArrivalSec      float64       `json:"arrival_sec"`
	WatchSec        float64       `json:"watch_sec"`
	StartupDelaySec float64       `json:"startup_delay_sec"`
	StallCount      int           `json:"stall_count"`
	StallSec        float64       `json:"stall_sec"`
	PlayedSec       float64       `json:"played_sec"`
	AvgBitrateMbps  float64       `json:"avg_bitrate_mbps"`
	Switches        int           `json:"switches"`
	TotalBytes      float64       `json:"total_bytes"`
	WastedBytes     float64       `json:"wasted_bytes"`
	Displayed       []int         `json:"displayed_tracks"`
	Buffer          []FocusSample `json:"buffer_timeline"`
}

// Report is the full population summary. Marshaling is struct-ordered
// and map-free, so the JSON bytes are a pure function of the normalized
// config — independent of worker count and steal schedule. Schema 2:
// fixed-size shard folds, fidelity counts and the focus section.
type Report struct {
	Schema   int    `json:"schema"`
	Config   Config `json:"config"`
	Cells    int    `json:"cells"`
	Sessions int64  `json:"sessions"`
	Started  int64  `json:"started"`
	// FullSessions and BackgroundSessions split the population by
	// simulation tier (FidelityFull controls the mix).
	FullSessions       int64 `json:"full_sessions"`
	BackgroundSessions int64 `json:"background_sessions"`
	// TotalBytes is what the edge links actually carried (media +
	// documents + waste), summed over cells.
	TotalBytes float64 `json:"total_bytes"`
	// FairnessJain has one sample per cell: Jain's index over the
	// cell members' achieved bitrates.
	FairnessJain Dist `json:"fairness_jain"`
	// EdgeUtilization has one sample per cell: delivered bytes over the
	// edge capacity integral. Conservation bounds it by 1.
	EdgeUtilization Dist           `json:"edge_utilization"`
	Services        []ServiceStats `json:"services"`
	// CDN summarizes the edge-cache tier; present only when the run had
	// a cache config (so cache-disabled reports keep their exact bytes).
	CDN *CDNReport `json:"cdn,omitempty"`
	// Focus lists the retained focus sessions, sorted by (cell, member).
	Focus []FocusSession `json:"focus,omitempty"`
}

// CDNBucket is one hit-ratio bucket of the QoE coupling section: the
// cells whose edge hit ratio fell in [Lo, Hi) and their mean QoE.
type CDNBucket struct {
	Lo             float64 `json:"lo"`
	Hi             float64 `json:"hi"`
	Cells          int64   `json:"cells"`
	MeanStartupSec float64 `json:"mean_startup_sec"`
	MeanStallRatio float64 `json:"mean_stall_ratio"`
}

// CDNReport is the edge-cache section of the report: fleet-wide
// request/byte counters, the per-cell hit-ratio distribution, and the
// per-cell QoE-vs-hit-ratio coupling (Pearson correlations plus
// bucketed means).
type CDNReport struct {
	EdgeHits    int64 `json:"edge_hits"`
	EdgeMisses  int64 `json:"edge_misses"`
	MetroHits   int64 `json:"metro_hits"`
	MetroMisses int64 `json:"metro_misses"`
	// Rerouted counts sessions the balancer moved to another edge node
	// after their node died mid-stream.
	Rerouted int64 `json:"rerouted_sessions"`
	// HitRatio is the fleet-wide edge hit ratio over media requests.
	HitRatio float64 `json:"hit_ratio"`
	// HitBytes were served from edge nodes; BackhaulBytes traversed the
	// shared backhaul (metro or origin); OriginBytes reached the origin.
	HitBytes      float64 `json:"hit_bytes"`
	BackhaulBytes float64 `json:"backhaul_bytes"`
	OriginBytes   float64 `json:"origin_bytes"`
	// OriginOffloadBytes is what the cache tier kept off the origin:
	// media bytes served by an edge node or a metro cache.
	OriginOffloadBytes float64 `json:"origin_offload_bytes"`
	// CellHitRatio has one sample per cell (cells with no media
	// requests count as 1).
	CellHitRatio Dist `json:"cell_hit_ratio"`
	// StartupHitCorr / StallHitCorr are the Pearson correlations of a
	// cell's edge hit ratio against its mean startup delay and mean
	// stall ratio — the per-cell QoE-vs-hit-ratio coupling.
	StartupHitCorr float64     `json:"startup_hit_corr"`
	StallHitCorr   float64     `json:"stall_hit_corr"`
	Buckets        []CDNBucket `json:"hit_ratio_buckets"`
}

func (a *fleetAgg) report(cfg Config, cells int, focus []FocusSession) *Report {
	r := &Report{
		Schema:             2,
		Config:             cfg,
		Cells:              cells,
		FullSessions:       a.full,
		BackgroundSessions: a.background,
		TotalBytes:         a.totalBytes,
		FairnessJain:       a.fairness.dist(),
		EdgeUtilization:    a.utilization.dist(),
		Services:           make([]ServiceStats, a.cols.nsvc),
		Focus:              focus,
	}
	for i := 0; i < a.cols.nsvc; i++ {
		r.Sessions += a.cols.sessions[i]
		r.Started += a.cols.started[i]
		r.Services[i] = ServiceStats{
			Service:         cfg.Services[i],
			Sessions:        a.cols.sessions[i],
			Started:         a.cols.started[i],
			BitrateMbps:     a.cols.dist(i, mBitrate),
			StallRatio:      a.cols.dist(i, mStall),
			StartupDelaySec: a.cols.dist(i, mStartup),
			SwitchesPerMin:  a.cols.dist(i, mSwitches),
		}
	}
	if a.cdnOn {
		s := a.cdnStats
		c := &CDNReport{
			EdgeHits:           s.EdgeHits,
			EdgeMisses:         s.EdgeMisses,
			MetroHits:          s.MetroHits,
			MetroMisses:        s.MetroMisses,
			Rerouted:           s.Rerouted,
			HitRatio:           s.HitRatio(),
			HitBytes:           s.HitBytes,
			BackhaulBytes:      s.MissBytes,
			OriginBytes:        s.OriginBytes,
			OriginOffloadBytes: s.HitBytes + s.MissBytes - s.OriginBytes,
			CellHitRatio:       a.cellHit.dist(),
			StartupHitCorr:     pearson(a.corrN, a.sumH, a.sumH2, a.sumQs, a.sumQs2, a.sumHQs),
			StallHitCorr:       pearson(a.corrN, a.sumH, a.sumH2, a.sumQt, a.sumQt2, a.sumHQt),
			Buckets:            make([]CDNBucket, nHitBuckets),
		}
		for i := 0; i < nHitBuckets; i++ {
			b := CDNBucket{
				Lo:    float64(i) / nHitBuckets,
				Hi:    float64(i+1) / nHitBuckets,
				Cells: a.bktCells[i],
			}
			if b.Cells > 0 {
				b.MeanStartupSec = a.bktStartup[i] / float64(b.Cells)
				b.MeanStallRatio = a.bktStall[i] / float64(b.Cells)
			}
			c.Buckets[i] = b
		}
		r.CDN = c
	}
	return r
}

// JSON renders the report deterministically (struct order, indented).
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

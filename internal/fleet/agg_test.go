package fleet

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cdn"
	"repro/internal/qoe"
)

// refMoments is the straightforward two-pass mean/std for cross-checking
// the streaming columns.
func refMoments(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

// TestSvcColsMatchesReference checks the columnar accumulator against a
// two-pass reference and against the scalar welford/hist pair it
// replaced, per (service, metric) cell.
func TestSvcColsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const nsvc = 3
	cols := newSvcCols(nsvc)
	ref := make([][]float64, nsvc*nMetrics)
	scalar := make([]*metricAgg, nsvc*nMetrics)
	for m := 0; m < nMetrics; m++ {
		for s := 0; s < nsvc; s++ {
			scalar[s*nMetrics+m] = &metricAgg{h: newHist(metricLo[m], metricHi[m], metricBins[m])}
		}
	}
	for i := 0; i < 5000; i++ {
		svc := rng.Intn(nsvc)
		metric := rng.Intn(nMetrics)
		// Spread over the range with deliberate out-of-range tails.
		v := (rng.Float64()*1.3 - 0.1) * metricHi[metric]
		cols.add(svc, metric, v)
		row := svc*nMetrics + metric
		ref[row] = append(ref[row], v)
		scalar[row].add(v)
	}
	for svc := 0; svc < nsvc; svc++ {
		for m := 0; m < nMetrics; m++ {
			row := svc*nMetrics + m
			if len(ref[row]) == 0 {
				continue
			}
			d := cols.dist(svc, m)
			mean, std := refMoments(ref[row])
			if d.Count != int64(len(ref[row])) {
				t.Fatalf("row %d count %d, want %d", row, d.Count, len(ref[row]))
			}
			if math.Abs(d.Mean-mean) > 1e-9*math.Max(1, math.Abs(mean)) {
				t.Fatalf("row %d mean %v, reference %v", row, d.Mean, mean)
			}
			if math.Abs(d.Std-std) > 1e-6*math.Max(1, std) {
				t.Fatalf("row %d std %v, reference %v", row, d.Std, std)
			}
			sd := scalar[row].dist()
			if d.Mean != sd.Mean || d.Std != sd.Std || d.P10 != sd.P10 || d.P50 != sd.P50 || d.P90 != sd.P90 || d.Under != sd.Under || d.Over != sd.Over {
				t.Fatalf("row %d columnar dist diverges from scalar accumulators:\ncols:   %+v\nscalar: %+v", row, d, sd)
			}
			for i := range d.Counts {
				if d.Counts[i] != sd.Counts[i] {
					t.Fatalf("row %d bin %d: %d vs %d", row, i, d.Counts[i], sd.Counts[i])
				}
			}
		}
	}
}

// TestSvcColsMergeOrderIsDeterministic: the same partition merged the
// same way twice must agree bit-for-bit, and merging must preserve
// exact counts while matching a flat fold's moments to float accuracy.
func TestSvcColsMergeOrderIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nsvc = 2
	vals := make([]float64, 4000)
	for i := range vals {
		vals[i] = rng.Float64() * metricHi[mBitrate]
	}
	build := func() *svcCols {
		parts := make([]*svcCols, 4)
		for p := range parts {
			parts[p] = newSvcCols(nsvc)
			for i := p; i < len(vals); i += 4 {
				parts[p].add(i%nsvc, mBitrate, vals[i])
				parts[p].sessions[i%nsvc]++
				parts[p].started[i%nsvc]++
			}
		}
		out := newSvcCols(nsvc)
		for _, p := range parts {
			out.merge(p)
		}
		return out
	}
	a, b := build(), build()
	for svc := 0; svc < nsvc; svc++ {
		da, db := a.dist(svc, mBitrate), b.dist(svc, mBitrate)
		if da.Mean != db.Mean || da.Std != db.Std || da.Count != db.Count {
			t.Fatalf("svc %d: identical merge sequences disagree: %+v vs %+v", svc, da, db)
		}
		if a.sessions[svc] != b.sessions[svc] || a.started[svc] != b.started[svc] {
			t.Fatalf("svc %d: session counters diverge", svc)
		}
	}
	flat := newSvcCols(nsvc)
	for i, v := range vals {
		flat.add(i%nsvc, mBitrate, v)
	}
	for svc := 0; svc < nsvc; svc++ {
		da, df := a.dist(svc, mBitrate), flat.dist(svc, mBitrate)
		if da.Count != df.Count {
			t.Fatalf("svc %d: merged count %d != flat %d", svc, da.Count, df.Count)
		}
		if math.Abs(da.Mean-df.Mean) > 1e-9 || math.Abs(da.Std-df.Std) > 1e-9 {
			t.Fatalf("svc %d: merged moments (%v, %v) drifted from flat fold (%v, %v)", svc, da.Mean, da.Std, df.Mean, df.Std)
		}
		for i := range da.Counts {
			if da.Counts[i] != df.Counts[i] {
				t.Fatalf("svc %d bin %d: merged %d != flat %d", svc, i, da.Counts[i], df.Counts[i])
			}
		}
	}
}

// TestQuantileWalk pins the integer-walk quantile semantics on a known
// histogram: bins resolve to their upper edge, under to lo, over to hi.
func TestQuantileWalk(t *testing.T) {
	h := newHist(0, 10, 10)
	for i := 0; i < 9; i++ {
		h.add(float64(i) + 0.5) // one sample per bin 0..8
	}
	h.add(-1) // under
	h.add(99) // over
	if h.Under != 1 || h.Over != 1 {
		t.Fatalf("tails under=%d over=%d", h.Under, h.Over)
	}
	if q := quantileWalk(50, h.Lo, h.Hi, h.Counts, h.Under, h.Over); q != 5 {
		t.Fatalf("p50 = %v, want 5 (upper edge of the 6th of 11 ordered samples)", q)
	}
	if q := quantileWalk(1, h.Lo, h.Hi, h.Counts, h.Under, h.Over); q != 0 {
		t.Fatalf("p1 = %v, want lo for the under tail", q)
	}
	if q := quantileWalk(100, h.Lo, h.Hi, h.Counts, h.Under, h.Over); q != 10 {
		t.Fatalf("p100 = %v, want hi for the over tail", q)
	}
	if q := quantileWalk(50, 0, 1, []int64{0, 0}, 0, 0); q != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", q)
	}
}

// TestJain pins the endpoints of the fairness index the fleet reports.
func TestJain(t *testing.T) {
	if j := qoe.Jain([]float64{5, 5, 5, 5}); math.Abs(j-1) > 1e-12 {
		t.Fatalf("equal shares: jain %v, want 1", j)
	}
	if j := qoe.Jain([]float64{1, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Fatalf("one taker of four: jain %v, want 0.25", j)
	}
	if j := qoe.Jain([]float64{0, 0}); j != 1 {
		t.Fatalf("all-zero shares: jain %v, want 1", j)
	}
}

// randReport draws one session's QoE with everything the fold branches
// on: viewers who left before the first frame, sessions with no playback,
// and values under and over every histogram's range.
func randReport(rng *rand.Rand) qoe.Report {
	rep := qoe.Report{
		StartupDelay: rng.Float64()*40 - 2, // < 0: never started; > 30: over range
		AvgBitrate:   (rng.Float64()*1.4 - 0.1) * bitrateHiMbps * 1e6,
		PlayedSec:    rng.Float64() * 120,
		StallSec:     rng.Float64() * 20,
		Switches:     rng.Intn(40),
	}
	switch rng.Intn(8) {
	case 0:
		rep.PlayedSec = 0
	case 1:
		rep.PlayedSec, rep.StallSec = 0, 0
	}
	return rep
}

// denseMerge folds a cell into a the way fleetAgg.merge did before cells
// were compacted — the dense svcCols.merge over the cell's whole slabs,
// and the cell-level terms straight from the scratch: the oracle for
// finish + merge.
func denseMerge(a *fleetAgg, c *cellAgg, delivered, offered float64, cache *cdn.Stats) {
	a.cols.merge(c.cols)
	if len(c.bitrates) > 0 {
		a.fairness.add(qoe.Jain(c.bitrates))
	}
	if offered > 0 {
		a.utilization.add(delivered / offered)
	}
	a.totalBytes += delivered
	a.cellsMerged++
	a.full += c.full
	a.background += c.background
	if cache == nil {
		return
	}
	a.cdnOn = true
	a.cdnStats.Add(*cache)
	h := cache.HitRatio()
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

// TestFinishedCellMatchesDense: compacting a cell and merging the compact
// form leaves the aggregate bit-for-bit where the dense merge leaves it —
// every int, every mean and m2 by Float64bits, and every fleet-level
// term — over seeded random cells of every shape, merged in order.
func TestFinishedCellMatchesDense(t *testing.T) {
	// Repeats in the list weight the mix and are distinct rows; the last
	// service is never drawn, so its rows stay untouched in every cell.
	svcs := []string{"H1", "D2", "H1", "S1", "D3", "H5"}
	for _, tc := range []struct {
		name  string
		sizes []int
		cdn   bool
	}{
		{"balanced 24-session cells", []int{24, 24, 24, 23}, false},
		{"a 5000-session hot cell first", []int{5000, 24, 24}, false},
		{"an empty cell between two", []int{24, 0, 24}, false},
		{"only empty cells", []int{0, 0, 0}, false},
		{"one-session cells", []int{1, 1, 1, 1, 1}, false},
		{"cache tier on", []int{24, 0, 300, 24}, true},
	} {
		rng := rand.New(rand.NewSource(int64(len(tc.name))))
		want, got := newFleetAgg(len(svcs)), newFleetAgg(len(svcs))
		scratch := new(cellAgg) // reused by every cell, as in a shard
		for k, size := range tc.sizes {
			scratch.begin(len(svcs))
			dense := newCellAgg(len(svcs))
			for i := 0; i < size; i++ {
				svc, rep := rng.Intn(len(svcs)-1), randReport(rng)
				scratch.observe(svc, rep)
				dense.observe(svc, rep)
				if rng.Intn(2) == 0 {
					scratch.full++
					dense.full++
				} else {
					scratch.background++
					dense.background++
				}
			}
			delivered, integral := rng.Float64()*1e9, rng.Float64()*1e10
			if size == 0 {
				integral = 0 // an empty cell's edge carried nothing for no time
			}
			var cache *cdn.Stats
			if tc.cdn {
				cache = &cdn.Stats{EdgeHits: int64(rng.Intn(1 + 3*size)), EdgeMisses: int64(rng.Intn(1 + size)), HitBytes: rng.Float64() * 1e8, MissBytes: rng.Float64() * 1e7}
			}
			denseMerge(want, dense, delivered, integral/8, cache)
			fc, err := scratch.finish(svcs, delivered, integral, cache)
			if err != nil {
				t.Fatalf("%s: cell %d: %v", tc.name, k, err)
			}
			if max := int64(3*(8*len(dense.cols.ints)+8*len(dense.cols.mean)+8*len(dense.cols.m2))) / 2; fc.bytes() > max {
				t.Errorf("%s: cell %d (%d sessions) compacts to %d B, over 1.5x its dense %d B", tc.name, k, size, fc.bytes(), max*2/3)
			}
			got.merge(fc)
		}
		for i := range want.cols.ints {
			if got.cols.ints[i] != want.cols.ints[i] {
				t.Fatalf("%s: int slab entry %d: %d, dense merge %d", tc.name, i, got.cols.ints[i], want.cols.ints[i])
			}
		}
		for r := range want.cols.mean {
			if math.Float64bits(got.cols.mean[r]) != math.Float64bits(want.cols.mean[r]) || math.Float64bits(got.cols.m2[r]) != math.Float64bits(want.cols.m2[r]) {
				t.Fatalf("%s: row %d moments (%v, %v), dense merge (%v, %v)", tc.name, r, got.cols.mean[r], got.cols.m2[r], want.cols.mean[r], want.cols.m2[r])
			}
		}
		// Everything else is plain comparable data once the slabs (checked
		// above) are set aside; DeepEqual compares floats with ==, which is
		// bit equality for the finite, non-zero-signed values here.
		want.cols, got.cols = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: fleet-level terms differ:\ncompact: %+v\ndense:   %+v", tc.name, got, want)
		}
	}
}

// newCellAgg is a scratch with its slabs already allocated.
func newCellAgg(nsvc int) *cellAgg {
	a := new(cellAgg)
	a.begin(nsvc)
	return a
}

// TestFinishRejectsNonFiniteSample: one NaN (or Inf) observation poisons
// a Welford row; finish must say which service and metric instead of
// handing the poisoned cell on to fail in json.Marshal after the whole
// fleet has run.
func TestFinishRejectsNonFiniteSample(t *testing.T) {
	svcs := []string{"H1", "D2", "S1"}
	for _, tc := range []struct {
		name string
		rep  qoe.Report
		want []string
	}{
		{"NaN bitrate", qoe.Report{StartupDelay: 1, AvgBitrate: math.NaN(), PlayedSec: 60}, []string{"service D2", "bitrate_mbps", "NaN"}},
		{"Inf startup", qoe.Report{StartupDelay: math.Inf(1), AvgBitrate: 1e6, PlayedSec: 60}, []string{"service D2", "startup_delay_sec", "non-finite"}},
	} {
		a := new(cellAgg)
		a.begin(len(svcs))
		a.observe(0, qoe.Report{StartupDelay: 2, AvgBitrate: 2e6, PlayedSec: 30})
		a.observe(1, tc.rep)
		a.observe(1, qoe.Report{StartupDelay: 2, AvgBitrate: 2e6, PlayedSec: 30})
		fc, err := a.finish(svcs, 1, 8, nil)
		if err == nil {
			t.Fatalf("%s: finish accepted the cell: %+v", tc.name, fc)
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error does not mention %q: %v", tc.name, want, err)
			}
		}
		// The scratch is clean again: the next cell must not inherit the
		// poisoned row.
		a.observe(1, qoe.Report{StartupDelay: 2, AvgBitrate: 2e6, PlayedSec: 30})
		if _, err := a.finish(svcs, 1, 8, nil); err != nil {
			t.Errorf("%s: the cell after the rejected one: %v", tc.name, err)
		}
	}
}

package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The reported tail is the highest percentile that still has ten
// samples beyond it.
func TestHighestPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(n - i) // descending: the function must sort
		}
		return vs
	}
	for _, c := range []struct {
		n          int
		ok         bool
		p, value   float64
		wantBeyond int
	}{
		{3, false, 0, 0, 0},
		{12, false, 0, 0, 0},
		{40, true, 75, 30, 10},
		{199, true, 90, 180, 19},
		{300, true, 95, 285, 15},
		{1000, true, 99, 990, 10},
		{20000, true, 99.9, 19980, 20},
	} {
		p, v, beyond, ok := highestPercentile(ramp(c.n))
		if ok != c.ok || p != c.p || v != c.value || beyond != c.wantBeyond {
			t.Errorf("n=%d: got p%v=%v beyond %d ok %v, want p%v=%v beyond %d ok %v", c.n, p, v, beyond, ok, c.p, c.value, c.wantBeyond, c.ok)
		}
	}
}

func TestLayerOfStack(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"simnet", []string{"math.Min", "repro/internal/simnet.(*Network).cellStepOnce", "repro/internal/player.(*Group).Run", "repro/internal/fleet.runCell", "main.runFleet"}},
		{"player", []string{"runtime.mallocgc", "repro/internal/player.(*Cohort).Add", "repro/internal/fleet.runCell"}},
		{"runtime.gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"runtime.gc", []string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/fleet.newCellAgg"}},
		{"runtime.gc", []string{"runtime.sweepone", "runtime.bgsweep"}},
		{"origin", []string{"repro/internal/manifest/dash.Encode", "repro/internal/origin.NewWithOptions"}},
		{"origin", []string{"repro/internal/media.Generate", "repro/internal/services.(*Service).Origin"}},
		{"experiments", []string{"sort.Float64s", "repro/internal/probe.Steady", "repro/internal/experiments.table1"}},
		{"analysis", []string{"repro/internal/qoe.FromSummary", "repro/internal/fleet.(*cellAgg).observe"}},
		{"expcache", []string{"crypto/sha256.block", "repro/internal/expcache.(*hasher).walk", "repro/internal/fleet.(*CellCache).key"}},
		{"expcache", []string{"repro/internal/expcache.(*Memo[go.shape.struct {},go.shape.*uint8]).Get", "repro/internal/fleet.RunWithOptions.func1"}},
		{"other", []string{"encoding/json.Marshal", "main.main", "runtime.main"}},
		{"other", []string{"runtime.futex", "runtime.schedule", "runtime.mcall"}},
	} {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("layerOfStack(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
	for _, layer := range layerOfPkg {
		found := false
		for _, l := range ladderLayers {
			found = found || l == layer
		}
		if !found {
			t.Errorf("layerOfPkg maps to %q, which is not a rung of the ladder", layer)
		}
	}
}

// pb appends protobuf fields; just enough of an encoder to write the
// fixture profile below.
type pb []byte

func (b *pb) varint(num int, v uint64) {
	*b = binary.AppendUvarint(*b, uint64(num)<<3)
	*b = binary.AppendUvarint(*b, v)
}

func (b *pb) bytes(num int, body []byte) {
	*b = binary.AppendUvarint(*b, uint64(num)<<3|2)
	*b = binary.AppendUvarint(*b, uint64(len(body)))
	*b = append(*b, body...)
}

func packed(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// fixtureProfile is a pprof CPU profile of three samples: math.Min
// inlined into a simnet frame (7 ticks), a GC worker (2 ticks), and the
// benchmark's own code (1 tick), with the sample fields once packed and
// once not.
func fixtureProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"math.Min", "repro/internal/simnet.(*Network).cellStepOnce", "repro/internal/fleet.runCell", "main.runFleet",
		"runtime.gcDrain", "runtime.gcBgMarkWorker"}
	var prof pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} { // sample_type
		var vt pb
		vt.varint(1, st[0])
		vt.varint(2, st[1])
		prof.bytes(1, vt)
	}
	sample := func(locs, values []uint64, pack bool) {
		var s pb
		if pack {
			s.bytes(1, packed(locs...))
			s.bytes(2, packed(values...))
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
			for _, v := range values {
				s.varint(2, v)
			}
		}
		prof.bytes(2, s)
	}
	sample([]uint64{1, 2, 3}, []uint64{7, 70e6}, true)
	sample([]uint64{4, 5}, []uint64{2, 20e6}, false)
	sample([]uint64{3}, []uint64{1, 10e6}, true)
	location := func(id uint64, funcs ...uint64) {
		var l pb
		l.varint(1, id)
		l.varint(3, 0x400000+id) // address
		for _, f := range funcs {
			var line pb
			line.varint(1, f)
			line.varint(2, 42)
			l.bytes(4, line)
		}
		prof.bytes(4, l)
	}
	location(1, 1, 2) // math.Min inlined into cellStepOnce
	location(2, 3)
	location(3, 4)
	location(4, 5)
	location(5, 6)
	for id := uint64(1); id <= 6; id++ { // function id i is named strs[4+i]
		var f pb
		f.varint(1, id)
		f.varint(2, 4+id)
		f.varint(3, 4+id)
		prof.bytes(5, f)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	prof.varint(10, 100e6) // duration_nanos
	prof.varint(12, 10e6)  // period

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

// Samples are bucketed by the innermost repository package on their
// stack, and the shares sum to 1.
func TestLadderFromFixtureProfile(t *testing.T) {
	samples, err := decodeProfile(fixtureProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{[]string{"math.Min", "repro/internal/simnet.(*Network).cellStepOnce", "repro/internal/fleet.runCell", "main.runFleet"}, 70e6},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, 20e6},
		{[]string{"main.runFleet"}, 10e6},
	}
	if !reflect.DeepEqual(samples, want) {
		t.Fatalf("decoded %v, want %v", samples, want)
	}
	shares, total := ladderShares(samples)
	if total != 100e6 {
		t.Errorf("total %d, want 100e6", total)
	}
	sum := 0.0
	for _, l := range ladderLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-12 || shares["simnet"] != 0.7 || shares["runtime.gc"] != 0.2 || shares["other"] != 0.1 || shares["fleet"] != 0 {
		t.Errorf("shares %v (sum %v), want simnet 0.7, runtime.gc 0.2, other 0.1", shares, sum)
	}

	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("decodeProfile accepted garbage")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x05, 0x0a}) // a Sample that claims 5 bytes and has 1
	zw.Close()
	if _, err := decodeProfile(gz.Bytes()); err == nil {
		t.Error("decodeProfile accepted a truncated message")
	}
}

// A span's self time is its duration minus what its children cover.
func TestSpanSelfTime(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "rep", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: "fleet.Run", Start: ms(10), End: ms(40)},
		{ID: 2, Parent: 0, Name: "render", Start: ms(30), End: ms(60)}, // overlaps span 1: counted once
		{ID: 3, Parent: 1, Name: "verify", Start: ms(15), End: ms(20)},
		{ID: 4, Parent: 0, Name: "verify", Start: ms(90), End: ms(120)}, // runs past its parent: clipped
	}
	want := []time.Duration{ms(40), ms(25), ms(30), ms(5), ms(30)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := selfByName(spans)["verify"]; math.Abs(got-0.035) > 1e-12 {
		t.Errorf("verify self time %v s, want 0.035", got)
	}

	// The recorder nests by call order and a nil recorder is inert.
	tr := newTracer("w")
	endA := tr.begin("a")
	endB := tr.begin("b")
	endB()
	endA()
	tr.begin("c")()
	if len(tr.spans) != 3 || tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != -1 || tr.spans[1].Workload != "w" {
		t.Errorf("recorded %+v", tr.spans)
	}
	var off *tracer
	off.begin("x")()
}

// benchmarkJSON is BENCHMARK.json as the acceptance driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every metric the benchmark prints is declared in BENCHMARK.json with
// the same unit, and the other way round.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadWhy) {
		t.Fatalf("%d workloads declared, %d implemented", len(bj.Workloads), len(workloadWhy))
	}
	for i, w := range workloadWhy {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || !nameRE.MatchString(w.name) {
			t.Errorf("workload %q: name or why outside the limits", w.name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, decls []metricDecl, names, units, better []string) {
		if len(decls) != len(names) {
			t.Errorf("%s: %d metrics declared, %d printed", kind, len(names), len(decls))
			return
		}
		for i, d := range decls {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s metric %d: declared %s [%s], printed %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s metric %q [%s]: bad or repeated name, or bad unit", kind, d.name, d.unit)
			}
			if better[i] != "lower" && better[i] != "higher" {
				t.Errorf("%s metric %q: better = %q", kind, d.name, better[i])
			}
			seen[d.name] = true
		}
	}
	var names, units, better []string
	setupBound, maxBound := 0.0, 0.0
	for _, e := range bj.EndToEnd {
		names, units, better = append(names, e.Name), append(units, e.Unit), append(better, e.Better)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		maxBound = math.Max(maxBound, e.Bound)
		if e.Name == "setup_s" {
			setupBound = e.Bound
			if e.Unit != "s" || e.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound < maxBound {
		t.Errorf("setup_s has bound %v, not the largest (%v)", setupBound, maxBound)
	}
	check("end_to_end", endToEnd, names, units, better)
	names, units, better = nil, nil, nil
	for _, p := range bj.PerLayer {
		names, units, better = append(names, p.Name), append(units, p.Unit), append(better, p.Better)
	}
	check("per_layer", perLayer, names, units, better)
	if len(bj.PerLayer) > 128 || len(bj.EndToEnd) > 16 || bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is outside the contract's limits")
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) || !reflect.DeepEqual(bj.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("paths %v, command %v", bj.Paths, bj.Command)
	}
}

// Every workload runs at smoke size in both modes, passes its own
// checks, and prints exactly the declared metrics, all finite.
func TestSmokeRuns(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloadWhy {
		layers := map[string]float64{}
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), options{workload: w.name, seed: 1, seconds: 0.05, trace: traced, smoke: true, outDir: dir}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, failed %d of %d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.name, traced, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want a finite value in %s", w.name, traced, d.name, m, ok, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, m.Value)
				}
				if traced {
					layers[d.name] = m.Value
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, traced, err)
			}
		}
		if _, err := os.Stat(dir + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: no Chrome trace written: %v", w.name, err)
		}
		// Each workload leaves the layers it bypasses untouched.
		if on := w.name == "fleet_flashcrowd"; (layers["cdn.requests"] > 0) != on {
			t.Errorf("%s: cdn.requests = %v", w.name, layers["cdn.requests"])
		}
		if on := w.name == "sweep_warm"; (layers["fleet.cellcache_hits"] > 0) != on || layers["fleet.cellcache_hits"] != layers["fleet.cellcache_builds"] {
			t.Errorf("%s: cellcache hits %v, builds %v", w.name, layers["fleet.cellcache_hits"], layers["fleet.cellcache_builds"])
		}
		if on := w.name == "report_cold"; (layers["expcache.misses"] > 0) != on || (layers["expcache.warm_report_s"] > 0) != on {
			t.Errorf("%s: expcache misses %v, warm report %v s", w.name, layers["expcache.misses"], layers["expcache.warm_report_s"])
		}
		if layers["sim.sessions"] <= 0 || layers["sim.report_bytes"] <= 0 {
			t.Errorf("%s: sim.sessions %v, sim.report_bytes %v", w.name, layers["sim.sessions"], layers["sim.report_bytes"])
		}
	}
	if _, err := run(context.Background(), options{workload: "nope", smoke: true}, io.Discard); err == nil {
		t.Error("an unknown workload ran")
	}
}

// Two sets of runs agree when end-to-end metrics are within their
// bounds and counts are identical.
func TestCompareSets(t *testing.T) {
	bf := benchmarkFile{}
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"wall_s","bound":0.08}]}`), &bf); err != nil {
		t.Fatal(err)
	}
	set := func(wall, sessions, rss float64) map[string]map[string]result {
		s := map[string]map[string]result{}
		for _, w := range workloadWhy {
			s[w.name] = map[string]result{
				"end_to_end": {Correct: true, Attempted: 3, Metrics: map[string]metricValue{"wall_s": {wall, "s"}}},
				"per_layer":  {Correct: true, Attempted: 5, Metrics: map[string]metricValue{"sim.sessions": {sessions, "count"}, "simnet.cpu_share": {rss, "ratio"}}},
			}
		}
		return s
	}
	if diffs := compareSets(set(4.0, 1000, 0.5), set(4.3, 1000, 0.7), bf); len(diffs) != 0 {
		t.Errorf("7.5%% apart under an 8%% bound, shares free to move: %v", diffs)
	}
	if diffs := compareSets(set(4.0, 1000, 0.5), set(4.4, 1000, 0.5), bf); len(diffs) != len(workloadWhy) {
		t.Errorf("10%% apart under an 8%% bound: %v", diffs)
	}
	if diffs := compareSets(set(4.0, 1000, 0.5), set(4.0, 1001, 0.5), bf); len(diffs) != len(workloadWhy) {
		t.Errorf("a count moved: %v", diffs)
	}
	failed := set(4.0, 1000, 0.5)
	failed["sweep_warm"]["end_to_end"] = result{Correct: false, Attempted: 3, Failed: 1, Metrics: failed["sweep_warm"]["end_to_end"].Metrics}
	if diffs := compareSets(set(4.0, 1000, 0.5), failed, bf); len(diffs) != 1 {
		t.Errorf("one failed op: %v", diffs)
	}
}

// An op's time is scaled by the calibrations taken around it.
func TestHostSpeedScaling(t *testing.T) {
	var h hostState
	raw, norm, err := h.around(func() (time.Duration, error) { return 2 * time.Second, nil })
	if err != nil || raw != 2 || len(h.calibs) != 1 || h.calibs[0] <= 0 {
		t.Fatalf("raw %v, err %v, calibrations %v", raw, err, h.calibs)
	}
	// Both settlings fall within settleEvery, so they share one calibration.
	if want := 2 * calibRefMs / h.calibs[0]; math.Abs(norm-want) > 1e-12 {
		t.Errorf("scaled time %v, want %v", norm, want)
	}
	h.last = time.Now().Add(-2 * settleEvery)
	if h.settle(); len(h.calibs) != 2 {
		t.Errorf("a stale calibration was not refreshed: %v", h.calibs)
	}
}

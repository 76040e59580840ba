package adaptation

import (
	"math"
	"testing"
	"testing/quick"
)

func ctx(est, buffer float64, last int) Context {
	return Context{
		Declared:        []float64{300e3, 600e3, 1.2e6, 2.4e6},
		SegmentDuration: 4,
		SegmentCount:    100,
		NextIndex:       10,
		BufferSec:       buffer,
		EstimateBps:     est,
		LastTrack:       last,
		StartupTrack:    1,
	}
}

func TestThroughputSelection(t *testing.T) {
	a := Throughput{Factor: 0.75}
	cases := []struct {
		est  float64
		want int
	}{
		{0, 1},     // no estimate → startup track
		{300e3, 0}, // 225k budget → lowest
		{900e3, 1}, // 675k
		{1.7e6, 2}, // 1.275M
		{4e6, 3},   // 3M
		{100e6, 3}, // clamped at top
	}
	for _, c := range cases {
		if got := a.Select(ctx(c.est, 20, 1)); got != c.want {
			t.Errorf("est %v: got %d, want %d", c.est, got, c.want)
		}
	}
}

func TestThroughputDecreaseBufferProtection(t *testing.T) {
	a := Throughput{Factor: 0.75, DecreaseBufferSec: 40}
	// Ideal would be 0, but the buffer is full: hold last track.
	if got := a.Select(ctx(300e3, 60, 3)); got != 3 {
		t.Errorf("with full buffer got %d, want hold at 3", got)
	}
	// Buffer below threshold: switch down freely.
	if got := a.Select(ctx(300e3, 20, 3)); got != 0 {
		t.Errorf("with low buffer got %d, want 0", got)
	}
}

func TestThroughputMinBufferForUp(t *testing.T) {
	a := Throughput{Factor: 0.75, MinBufferForUpSec: 20}
	if got := a.Select(ctx(4e6, 5, 1)); got != 1 {
		t.Errorf("thin buffer should block up-switch, got %d", got)
	}
	if got := a.Select(ctx(4e6, 30, 1)); got != 3 {
		t.Errorf("healthy buffer should allow up-switch, got %d", got)
	}
}

func TestThroughputUseActual(t *testing.T) {
	c := ctx(1e6, 20, 1)
	// Actual sizes are half the declared rate (VBR with peak declared).
	c.SegmentSize = func(track, index int) float64 {
		return c.Declared[track] / 2 * c.SegmentDuration / 8
	}
	declaredOnly := Throughput{Factor: 0.75}
	actualAware := Throughput{Factor: 0.75, UseActual: true}
	d := declaredOnly.Select(c)
	a := actualAware.Select(c)
	if a <= d {
		t.Errorf("actual-aware (%d) should select above declared-only (%d)", a, d)
	}
}

func TestHysteresis(t *testing.T) {
	a := DefaultHysteresis()
	// Up-switch blocked below MinBufferForUp.
	if got := a.Select(ctx(4e6, 5, 1)); got != 1 {
		t.Errorf("up-switch with 5s buffer: got %d", got)
	}
	if got := a.Select(ctx(4e6, 15, 1)); got != 3 {
		t.Errorf("up-switch with 15s buffer: got %d", got)
	}
	// Down-switch blocked above MaxBufferForDown.
	if got := a.Select(ctx(300e3, 30, 3)); got != 3 {
		t.Errorf("down-switch with 30s buffer: got %d", got)
	}
	if got := a.Select(ctx(300e3, 10, 3)); got != 0 {
		t.Errorf("down-switch with 10s buffer: got %d", got)
	}
	// First selection uses the startup track.
	if got := a.Select(ctx(4e6, 0, -1)); got != 1 {
		t.Errorf("first selection: got %d", got)
	}
}

func TestBufferBased(t *testing.T) {
	a := BufferBased{Reservoir: 10, Cushion: 30}
	cases := []struct {
		buf  float64
		want int
	}{
		{0, 0}, {10, 0}, {25, 1}, {40, 3}, {100, 3},
	}
	for _, c := range cases {
		if got := a.Select(ctx(1e6, c.buf, 1)); got != c.want {
			t.Errorf("buffer %v: got %d, want %d", c.buf, got, c.want)
		}
	}
}

func TestOscillatingGreedy(t *testing.T) {
	a := OscillatingGreedy{Deadband: 0.5, UpFactor: 100} // no cap
	c := ctx(1e6, 20, 1)
	c.BufferTrend = 2
	if got := a.Select(c); got != 2 {
		t.Errorf("growing buffer should step up, got %d", got)
	}
	c.BufferTrend = -2
	if got := a.Select(c); got != 0 {
		t.Errorf("shrinking buffer should step down, got %d", got)
	}
	// The up cap binds: next track's rate exceeds UpFactor × estimate.
	capped := OscillatingGreedy{Deadband: 0.5, UpFactor: 1}
	c.BufferTrend = 2
	c.LastTrack = 2 // next declared 2.4M > 1 × 1M
	if got := capped.Select(c); got != 2 {
		t.Errorf("capped probe should hold, got %d", got)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Estimate() != 0 {
		t.Fatal("fresh estimator should report 0")
	}
	e.Add(8e6, 1) // 8 Mbit/s
	if e.Estimate() != 8e6 {
		t.Fatalf("first sample %v", e.Estimate())
	}
	e.Add(4e6, 1)
	if got := e.Estimate(); math.Abs(got-6e6) > 1 {
		t.Fatalf("EWMA %v, want 6e6", got)
	}
	e.Add(1, 0) // ignored
	if got := e.Estimate(); math.Abs(got-6e6) > 1 {
		t.Fatalf("zero-duration sample changed estimate to %v", got)
	}
}

func TestSlidingHarmonic(t *testing.T) {
	e := NewSlidingHarmonic(2)
	e.Add(8e6, 1)
	e.Add(2e6, 1)
	if got := e.Estimate(); math.Abs(got-5e6) > 1 {
		t.Fatalf("window mean %v", got)
	}
	e.Add(2e6, 1) // evicts the 8e6 sample
	if got := e.Estimate(); math.Abs(got-2e6) > 1 {
		t.Fatalf("after eviction %v", got)
	}
}

// TestQuickThroughputMonotone: a higher estimate never selects a lower
// track, and results are always in range.
func TestQuickThroughputMonotone(t *testing.T) {
	a := Throughput{Factor: 0.75}
	f := func(e1, e2 float64) bool {
		e1, e2 = math.Abs(e1), math.Abs(e2)
		if math.IsNaN(e1) || math.IsNaN(e2) || math.IsInf(e1, 0) || math.IsInf(e2, 0) {
			return true
		}
		if e1 > e2 {
			e1, e2 = e2, e1
		}
		lo := a.Select(ctx(e1, 20, 1))
		hi := a.Select(ctx(e2, 20, 1))
		return lo >= 0 && hi <= 3 && (e1 == 0 || e2 == 0 || lo <= hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTrackRateFallbacks(t *testing.T) {
	c := ctx(1e6, 20, 1)
	// No sizes, no averages: declared.
	if got := c.trackRate(2, 1, true); got != 1.2e6 {
		t.Fatalf("declared fallback %v", got)
	}
	// Averages advertised: used when actual requested.
	c.Average = []float64{150e3, 300e3, 600e3, 1.2e6}
	if got := c.trackRate(2, 1, true); got != 600e3 {
		t.Fatalf("average fallback %v", got)
	}
	// Per-segment sizes win over averages.
	c.SegmentSize = func(track, index int) float64 { return 400e3 * c.SegmentDuration / 8 }
	if got := c.trackRate(2, 1, true); got != 400e3 {
		t.Fatalf("actual sizes %v", got)
	}
	// useActual=false always reads declared.
	if got := c.trackRate(2, 1, false); got != 1.2e6 {
		t.Fatalf("declared %v", got)
	}
	// Horizon takes the worst upcoming segment.
	c.SegmentSize = func(track, index int) float64 {
		return float64(100e3+100e3*index) * c.SegmentDuration / 8
	}
	want := float64(100e3 + 100e3*12) // NextIndex=10, horizon 3 → worst at 12
	if got := c.trackRate(2, 3, true); got != want {
		t.Fatalf("horizon worst %v, want %v", got, want)
	}
}

package adaptation

import "testing"

func TestFestiveGradualUpswitch(t *testing.T) {
	f := NewFestive()
	// Huge estimate: the reference rung is the top, but FESTIVE climbs
	// one rung at a time, needing rung+1 agreeing decisions per step.
	c := ctx(100e6, 30, 0)
	steps := []int{}
	track := 0
	for i := 0; i < 12; i++ {
		c.LastTrack = track
		track = f.Select(c)
		steps = append(steps, track)
	}
	// Never jumps more than one rung.
	prev := 0
	for i, tr := range steps {
		if tr > prev+1 {
			t.Fatalf("step %d jumped %d→%d", i, prev, tr)
		}
		prev = tr
	}
	if track != 3 {
		t.Fatalf("never reached the top: %v", steps)
	}
}

func TestFestiveImmediateDownswitch(t *testing.T) {
	f := NewFestive()
	c := ctx(100e3, 30, 3)
	if got := f.Select(c); got != 2 {
		t.Fatalf("down-switch got %d, want 2 (one rung)", got)
	}
}

func TestFestiveStartup(t *testing.T) {
	f := NewFestive()
	if got := f.Select(ctx(0, 0, -1)); got != 1 {
		t.Fatalf("startup track got %d", got)
	}
}

func TestProbeAdaptHoldsOnSteadyBuffer(t *testing.T) {
	a := ProbeAdapt{}
	c := ctx(2e6, 20, 1)
	c.BufferTrend = 0.1
	if got := a.Select(c); got != 1 {
		t.Fatalf("steady buffer should hold, got %d", got)
	}
}

func TestProbeAdaptProbesUpOnGrowth(t *testing.T) {
	a := ProbeAdapt{}
	c := ctx(2e6, 20, 1)
	c.BufferTrend = 2
	if got := a.Select(c); got != 2 {
		t.Fatalf("growing buffer should probe up, got %d", got)
	}
	// But not with a thin buffer.
	c.BufferSec = 5
	if got := a.Select(c); got != 1 {
		t.Fatalf("thin buffer should not probe, got %d", got)
	}
	// And not into a rung that clearly exceeds the link.
	c.BufferSec = 20
	c.EstimateBps = 400e3 // next rung declared 1.2M > 1.2×0.4M
	if got := a.Select(c); got != 1 {
		t.Fatalf("over-capacity probe not suppressed, got %d", got)
	}
}

func TestProbeAdaptStepsDownOnDrain(t *testing.T) {
	a := ProbeAdapt{}
	c := ctx(2e6, 10, 2)
	c.BufferTrend = -3
	if got := a.Select(c); got != 1 {
		t.Fatalf("draining buffer should step down, got %d", got)
	}
}

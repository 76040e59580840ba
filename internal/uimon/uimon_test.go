package uimon

import (
	"math"
	"testing"
)

// synthSamples builds a progress series: idle until startup, playing at
// rate 1 with a stall window.
func synthSamples(startup, stallAt, stallDur, total float64) []Sample {
	var out []Sample
	pos := 0.0
	for t := 0.0; t <= total; t++ {
		out = append(out, Sample{T: t, Position: pos})
		playing := t >= startup && !(t >= stallAt && t < stallAt+stallDur)
		if playing {
			pos++
		}
	}
	return out
}

func TestStartupDelay(t *testing.T) {
	s := synthSamples(5, 100, 0, 30)
	if got := StartupDelay(s); got != 5 {
		t.Fatalf("startup %v, want 5", got)
	}
	if got := StartupDelay(nil); got != -1 {
		t.Fatalf("empty samples startup %v", got)
	}
	flat := []Sample{{0, 0}, {1, 0}, {2, 0}}
	if got := StartupDelay(flat); got != -1 {
		t.Fatalf("never-playing startup %v", got)
	}
}

func TestStalls(t *testing.T) {
	s := synthSamples(3, 10, 4, 40)
	stalls := Stalls(s, 1)
	if len(stalls) != 1 {
		t.Fatalf("%d stalls, want 1", len(stalls))
	}
	if math.Abs(stalls[0].Start-10) > 1.5 || math.Abs(stalls[0].Duration()-4) > 1.5 {
		t.Fatalf("stall %+v, want ≈[10,14]", stalls[0])
	}
}

func TestStallsIgnoreStartupIdle(t *testing.T) {
	// The pre-startup flat region must not count as a stall.
	s := synthSamples(10, 100, 0, 30)
	if stalls := Stalls(s, 1); len(stalls) != 0 {
		t.Fatalf("counted startup idle as stall: %+v", stalls)
	}
}

func TestTrailingStall(t *testing.T) {
	// Playback starts then freezes to the end.
	var s []Sample
	pos := 0.0
	for t := 0.0; t <= 20; t++ {
		s = append(s, Sample{T: t, Position: pos})
		if t >= 2 && t < 8 {
			pos++
		}
	}
	stalls := Stalls(s, 1)
	if len(stalls) != 1 || stalls[0].End != 20 {
		t.Fatalf("trailing stall %+v", stalls)
	}
}

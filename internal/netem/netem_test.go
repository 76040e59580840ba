package netem

import (
	"bytes"
	"math"
	"testing"
)

func TestAtAndBoundary(t *testing.T) {
	p := &Profile{Samples: []float64{10, 20, 30}}
	cases := []struct{ t, want float64 }{
		{0, 10}, {0.5, 10}, {1, 20}, {2.9, 30},
		{3, 10},   // loops
		{4.5, 20}, // loops
	}
	for _, c := range cases {
		if got := p.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if got := p.NextBoundary(0); got != 1 {
		t.Errorf("NextBoundary(0) = %v", got)
	}
	if got := p.NextBoundary(0.999999); got != 1 {
		t.Errorf("NextBoundary(0.999999) = %v", got)
	}
	if got := p.NextBoundary(1); got != 2 {
		t.Errorf("NextBoundary(1) = %v", got)
	}
}

func TestIntegral(t *testing.T) {
	p := &Profile{Samples: []float64{10, 20, 30}}
	cases := []struct{ a, b, want float64 }{
		{0, 1, 10},
		{0, 3, 60},
		{0.5, 1.5, 15},
		{2, 4, 40},  // wraps: 30 + 10
		{0, 6, 120}, // two periods
		{1, 1, 0},   // empty
		{2.5, 2.5, 0},
	}
	for _, c := range cases {
		if got := p.Integral(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Integral(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAverageMinMax(t *testing.T) {
	p := &Profile{Samples: []float64{10, 20, 30}}
	if got := p.Average(); got != 20 {
		t.Errorf("Average = %v", got)
	}
	if got := p.Min(); got != 10 {
		t.Errorf("Min = %v", got)
	}
	if got := p.Max(); got != 30 {
		t.Errorf("Max = %v", got)
	}
	if got := p.Duration(); got != 3 {
		t.Errorf("Duration = %v", got)
	}
}

func TestConstantAndStep(t *testing.T) {
	c := Constant("c", 5e6, 10)
	if c.At(3) != 5e6 || c.Duration() != 10 {
		t.Error("Constant profile wrong")
	}
	s := Step("s", 4e6, 1e6, 5, 10)
	if s.At(4.5) != 4e6 || s.At(5) != 1e6 {
		t.Error("Step profile wrong")
	}
}

func TestSplitAndSlice(t *testing.T) {
	p := Constant("c", 1e6, 600)
	parts := p.Split(60)
	if len(parts) != 10 {
		t.Fatalf("Split gave %d parts", len(parts))
	}
	for _, part := range parts {
		if part.Duration() != 60 {
			t.Fatalf("part duration %v", part.Duration())
		}
	}
	// Partial final chunk is discarded.
	if got := len(Constant("c", 1e6, 90).Split(60)); got != 1 {
		t.Errorf("Split(90s/60s) = %d chunks", got)
	}
}

// TestFormatGolden pins the trace text format: a name line, then one
// sample a line.
func TestFormatGolden(t *testing.T) {
	p := &Profile{Name: "trace x", Samples: []float64{1e6, 2.5e6, 0}}
	var buf bytes.Buffer
	if err := p.Format(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "# trace x\n1e+06\n2.5e+06\n0\n"; got != want {
		t.Fatalf("Format wrote %q, want %q", got, want)
	}
}

func TestCellularSet(t *testing.T) {
	ps := CellularSet()
	if len(ps) != CellularCount {
		t.Fatalf("%d profiles, want %d", len(ps), CellularCount)
	}
	for i, p := range ps {
		if p.Duration() != 600 {
			t.Errorf("profile %d duration %v", i+1, p.Duration())
		}
		if i > 0 && p.Average() < ps[i-1].Average() {
			t.Errorf("profiles not sorted by average at %d", i+1)
		}
		if p.Min() <= 0 {
			t.Errorf("profile %d has non-positive sample", i+1)
		}
		if p.Max() > 61e6 {
			t.Errorf("profile %d peaks at %.1f Mbps (cap is ~60)", i+1, p.Max()/1e6)
		}
	}
	// The spread matches Figure 3: lowest ~0.6, highest ~35-40 Mbit/s.
	if a := ps[0].Average(); a < 0.4e6 || a > 0.9e6 {
		t.Errorf("profile 1 average %.2f Mbps", a/1e6)
	}
	if a := ps[13].Average(); a < 25e6 {
		t.Errorf("profile 14 average %.2f Mbps", a/1e6)
	}
	// Determinism.
	qs := CellularSet()
	for i := range ps {
		if ps[i].Samples[100] != qs[i].Samples[100] {
			t.Fatal("cellular profiles not deterministic")
		}
	}
}

func TestSortByAverage(t *testing.T) {
	ps := []*Profile{
		Constant("b", 2e6, 10),
		Constant("a", 1e6, 10),
	}
	SortByAverage("p", ps)
	if ps[0].Average() != 1e6 || ps[0].Name != "p-01" || ps[1].Name != "p-02" {
		t.Errorf("SortByAverage wrong: %v %v", ps[0].Name, ps[1].Name)
	}
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("const:2.5", 60)
	if err != nil || p.At(10) != 2.5e6 {
		t.Fatalf("const spec: %v %v", p, err)
	}
	p, err = ParseSpec("step:4,0.8,20", 60)
	if err != nil || p.At(10) != 4e6 || p.At(30) != 0.8e6 {
		t.Fatalf("step spec: %v %v", p, err)
	}
	p, err = ParseSpec("3", 60)
	if err != nil || p.Name != "cellular-03" {
		t.Fatalf("cellular spec: %v %v", p, err)
	}
	for _, bad := range []string{"", "0", "15", "const:x", "const:-1", "step:1,2", "step:a,b,c"} {
		if _, err := ParseSpec(bad, 60); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestCursorMatchesProfile pins the Cursor shim: ValueNext(t) is
// (At(t), NextBoundary(t)) at any time, forwards or backwards.
func TestCursorMatchesProfile(t *testing.T) {
	p := &Profile{Samples: []float64{10, 20, 30}}
	c := p.Cursor()
	for _, tm := range []float64{0, 0.5, 1, 2.999, 3, 7.25, 1.5, 0} {
		if v, next := c.ValueNext(tm); v != p.At(tm) || next != p.NextBoundary(tm) {
			t.Errorf("ValueNext(%v) = (%v, %v), want (%v, %v)", tm, v, next, p.At(tm), p.NextBoundary(tm))
		}
	}
}

// Duration returns the total trace duration in seconds.
func (p *Profile) Duration() float64 { return float64(len(p.Samples)) }

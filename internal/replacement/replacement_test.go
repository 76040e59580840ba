package replacement

import "testing"

func view(buffered []BufferedSegment, selected, last int, bufferSec float64) View {
	return View{
		Buffered:        buffered,
		Playhead:        0,
		BufferSec:       bufferSec,
		SelectedTrack:   selected,
		LastTrack:       last,
		NextIndex:       len(buffered),
		SegmentDuration: 4,
	}
}

func segs(tracks ...int) []BufferedSegment {
	out := make([]BufferedSegment, len(tracks))
	for i, tr := range tracks {
		out[i] = BufferedSegment{Index: i, Track: tr, Start: float64(i) * 4}
	}
	return out
}

func TestNone(t *testing.T) {
	if got := (None{}).Consider(view(segs(0, 0), 3, 0, 60)); got.Op != OpNext {
		t.Fatalf("None returned %+v", got)
	}
}

func TestContiguousTriggersOnUpswitch(t *testing.T) {
	p := ContiguousOnUpswitch{}
	// Up-switch 1→3 with low-track segments beyond the 5 s margin.
	got := p.Consider(view(segs(1, 1, 1, 1), 3, 1, 16))
	if got.Op != OpDropTail {
		t.Fatalf("expected OpDropTail, got %+v", got)
	}
	if got.Index != 2 {
		t.Fatalf("drop index %d, want 2 (first beyond 5s margin)", got.Index)
	}
}

func TestContiguousNoTriggerCases(t *testing.T) {
	p := ContiguousOnUpswitch{}
	cases := []struct {
		name string
		v    View
	}{
		{"no up-switch", view(segs(1, 1, 1), 1, 1, 30)},
		{"down-switch", view(segs(2, 2, 2), 1, 2, 30)},
		{"thin buffer", view(segs(1, 1, 1), 3, 1, 5)},
		{"first selection", view(segs(1, 1, 1), 3, -1, 30)},
		{"everything already high", view(segs(3, 3, 3), 3, 2, 30)},
	}
	for _, c := range cases {
		if got := p.Consider(c.v); got.Op != OpNext {
			t.Errorf("%s: got %+v", c.name, got)
		}
	}
}

func TestContiguousIgnoreBufferedQuality(t *testing.T) {
	p := ContiguousOnUpswitch{IgnoreBufferedQuality: true}
	// H4 replaces even segments at or above the new selection.
	got := p.Consider(view(segs(4, 4, 4, 4), 3, 2, 30))
	if got.Op != OpDropTail || got.Index != 2 {
		t.Fatalf("H4-style should drop regardless of quality: %+v", got)
	}
}

func TestContiguousSafetyMargin(t *testing.T) {
	p := ContiguousOnUpswitch{SafetyMarginSec: 9}
	got := p.Consider(view(segs(1, 1, 1, 1), 3, 1, 30))
	// Segments starting before playhead+9 are protected: first eligible
	// index is 3 (starts at 12).
	if got.Op != OpDropTail || got.Index != 3 {
		t.Fatalf("margin ignored: %+v", got)
	}
}

func TestPerSegmentBasics(t *testing.T) {
	p := PerSegment{MinBufferSec: 15, CapTrack: -1}
	got := p.Consider(view(segs(3, 1, 0, 2), 3, 3, 30))
	if got.Op != OpReplace {
		t.Fatalf("expected OpReplace, got %+v", got)
	}
	// Earliest eligible beyond the 5 s margin with track < selected.
	if got.Index != 2 {
		t.Fatalf("replace index %d, want 2", got.Index)
	}
}

func TestPerSegmentOnlyImproves(t *testing.T) {
	p := PerSegment{MinBufferSec: 15, CapTrack: -1}
	// Everything at or above the selection: nothing to do.
	if got := p.Consider(view(segs(3, 3, 4, 3), 3, 3, 30)); got.Op != OpNext {
		t.Fatalf("replaced a non-improvable segment: %+v", got)
	}
}

func TestPerSegmentSuspendsOnThinBuffer(t *testing.T) {
	p := PerSegment{MinBufferSec: 15, CapTrack: -1}
	if got := p.Consider(view(segs(0, 0, 0, 0), 3, 3, 10)); got.Op != OpNext {
		t.Fatalf("replaced with thin buffer: %+v", got)
	}
}

func TestPerSegmentCap(t *testing.T) {
	p := PerSegment{MinBufferSec: 15, CapTrack: 1}
	// Track-2 segments are above the cap; only 0/1 are eligible.
	got := p.Consider(view(segs(2, 2, 2, 1), 4, 4, 30))
	if got.Op != OpReplace || got.Index != 3 {
		t.Fatalf("cap ignored: %+v", got)
	}
	if got := p.Consider(view(segs(2, 2, 2, 2), 4, 4, 30)); got.Op != OpNext {
		t.Fatalf("replaced above cap: %+v", got)
	}
}

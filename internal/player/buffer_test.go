package player

import (
	"math"
	"testing"

	"repro/internal/media"
)

func seg(index int, track int, start, dur float64) BufferedSegment {
	return BufferedSegment{
		Type: media.TypeVideo, Track: track, Index: index,
		Start: start, End: start + dur, Bytes: 1000,
	}
}

// hasIndex reports whether segment index is buffered.
func hasIndex(b *Buffer, index int) bool {
	for _, s := range b.segs {
		if s.Index == index {
			return true
		}
	}
	return false
}

func TestBufferPlayableEnd(t *testing.T) {
	var b Buffer
	if got := b.PlayableEnd(5); got != 5 {
		t.Fatalf("empty buffer end %v", got)
	}
	b.Insert(seg(0, 0, 0, 4))
	b.Insert(seg(1, 0, 4, 4))
	if got := b.PlayableEnd(0); got != 8 {
		t.Fatalf("end %v, want 8", got)
	}
	if got := b.PlayableEnd(3); got != 8 {
		t.Fatalf("end from mid-segment %v, want 8", got)
	}
	// A gap stops contiguity.
	b.Insert(seg(3, 0, 12, 4))
	if got := b.PlayableEnd(0); got != 8 {
		t.Fatalf("end across gap %v, want 8", got)
	}
	// Filling the gap extends the range.
	b.Insert(seg(2, 0, 8, 4))
	if got := b.PlayableEnd(0); got != 16 {
		t.Fatalf("end after fill %v, want 16", got)
	}
}

func TestBufferInsertReplaces(t *testing.T) {
	var b Buffer
	b.Insert(seg(0, 1, 0, 4))
	old, replaced := b.Insert(seg(0, 3, 0, 4))
	if !replaced || old.Track != 1 {
		t.Fatalf("replace: %+v %v", old, replaced)
	}
	if b.Len() != 1 {
		t.Fatalf("len %d after replace", b.Len())
	}
	got, ok := b.SegmentAt(1)
	if !ok || got.Track != 3 {
		t.Fatalf("SegmentAt: %+v %v", got, ok)
	}
}

func TestBufferDropFromIndex(t *testing.T) {
	var b Buffer
	for i := 0; i < 5; i++ {
		b.Insert(seg(i, 0, float64(i)*4, 4))
	}
	dropped := b.DropFromIndex(2)
	if len(dropped) != 3 || b.Len() != 2 {
		t.Fatalf("dropped %d, kept %d", len(dropped), b.Len())
	}
	if hasIndex(&b, 2) || !hasIndex(&b, 1) {
		t.Fatal("wrong segments dropped")
	}
	if got := b.PlayableEnd(0); got != 8 {
		t.Fatalf("end after drop %v", got)
	}
}

func TestBufferGC(t *testing.T) {
	var b Buffer
	for i := 0; i < 5; i++ {
		b.Insert(seg(i, 0, float64(i)*4, 4))
	}
	if n := b.GC(9); n != 2 {
		t.Fatalf("GC dropped %d, want 2", n)
	}
	if b.Len() != 3 || hasIndex(&b, 1) {
		t.Fatal("GC kept the wrong segments")
	}
	if got := b.UnplayedCount(9); got != 3 {
		t.Fatalf("unplayed %d", got)
	}
}

func TestBufferSegmentAtBoundary(t *testing.T) {
	var b Buffer
	b.Insert(seg(0, 0, 0, 4))
	b.Insert(seg(1, 1, 4, 4))
	got, ok := b.SegmentAt(4 + 1e-12)
	if !ok || got.Index != 1 {
		t.Fatalf("boundary lookup: %+v %v", got, ok)
	}
	if _, ok := b.SegmentAt(8.5); ok {
		t.Fatal("lookup past end should fail")
	}
	if math.IsNaN(b.PlayableEnd(0)) {
		t.Fatal("NaN")
	}
}

// Len returns the number of buffered segments.
func (b *Buffer) Len() int { return len(b.segs) }

package player

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/manifest"
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
	b.GC(9)
	if b.Len() != 3 {
		t.Fatalf("GC kept %d segments, want 3", b.Len())
	}
	if b.Len() != 3 || hasIndex(&b, 1) {
		t.Fatal("GC kept the wrong segments")
	}
	if got := b.UnplayedCount(9); got != 3 {
		t.Fatalf("unplayed %d", got)
	}
}

// gcFilter is the full filter Buffer.GC replaced, kept as its oracle:
// it drops every segment that ends at or before the playhead, wherever
// in the buffer it sits.
func gcFilter(segs []BufferedSegment, playhead float64) (kept []BufferedSegment, n int) {
	for _, s := range segs {
		if s.End <= playhead+1e-9 {
			n++
			continue
		}
		kept = append(kept, s)
	}
	return kept, n
}

// checkBufferOrder is the invariant GC's early return rests on: the
// segments are sorted by Start and their Ends ascend.
func checkBufferOrder(b *Buffer) error {
	for i := 1; i < len(b.segs); i++ {
		p, s := b.segs[i-1], b.segs[i]
		if s.Start < p.Start || s.End < p.End {
			return fmt.Errorf("segment %d [%v, %v) follows segment %d [%v, %v)", s.Index, s.Start, s.End, p.Index, p.Start, p.End)
		}
	}
	return nil
}

// TestBufferGCMatchesFullFilter drives buffers of real presentations'
// segments (every track, the short last segment, separate audio with
// its own segment duration) through seeded sequences of Insert —
// forward fetches, gaps and re-downloads at another track —
// DropFromIndex and GC at an advancing playhead that often lands on a
// segment end within GC's 1e-9 tolerance. After every operation the
// buffer keeps its order, and every GC drops exactly what the full
// filter drops.
func TestBufferGCMatchesFullFilter(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		segDur := []float64{1, 2, 2.002, 3.2, 4, 6, 10}[rng.Intn(7)]
		v, err := media.Generate(media.Config{
			Name: "b", Duration: 60 + rng.Float64()*200, SegmentDuration: segDur,
			TargetBitrates: []float64{200e3, 800e3, 1.6e6}, Seed: seed,
			SeparateAudio: true, AudioSegmentDuration: []float64{1, 1.92, 2, 3}[rng.Intn(4)],
		})
		if err != nil {
			t.Fatal(err)
		}
		pres := manifest.Build(v, manifest.BuildOptions{Protocol: manifest.DASH, Addressing: manifest.SidxRanges})
		for _, rends := range [][]*manifest.Rendition{pres.Video, pres.Audio} {
			var b Buffer
			n, d := len(rends[0].Segments), rends[0].SegmentDuration
			ph, gcs, dropped := 0.0, 0, 0
			for op := 0; op < 600; op++ {
				at := int(ph / d)
				switch rng.Intn(5) {
				case 0, 1, 2:
					i := min(at+rng.Intn(8), n-1)
					r := rends[rng.Intn(len(rends))]
					sg := r.Segments[i]
					b.Insert(BufferedSegment{Track: r.ID, Index: i, Start: sg.Start, End: sg.Start + sg.Duration})
				case 3:
					b.DropFromIndex(at + rng.Intn(10))
				case 4:
					if rng.Intn(2) == 0 && len(b.segs) > 0 {
						ph = max(ph, b.segs[rng.Intn(len(b.segs))].End+(rng.Float64()-0.5)*4e-9)
					} else {
						ph += rng.Float64() * 2 * d
					}
					want, wantN := gcFilter(b.segs, ph)
					before := len(b.segs)
					b.GC(ph)
					if got := before - len(b.segs); got != wantN || !slices.Equal(b.segs, want) {
						t.Fatalf("seed %d op %d: GC(%v) dropped %d leaving %v, the full filter %d leaving %v", seed, op, ph, got, b.segs, wantN, want)
					}
					gcs++
					dropped += wantN
				}
				if err := checkBufferOrder(&b); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
			if gcs == 0 || dropped == 0 {
				t.Fatalf("seed %d: %d GCs dropped %d segments: the sequence does not exercise GC", seed, gcs, dropped)
			}
		}
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

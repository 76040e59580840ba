package player

import (
	"repro/internal/media"
)

// BufferedSegment is one downloaded, not-yet-played segment.
type BufferedSegment struct {
	// Type is video or audio.
	Type media.MediaType
	// Track is the quality level it was downloaded at.
	Track int
	// Index is the segment's position within the presentation.
	Index int
	// Start and End bound the segment's media time in seconds.
	Start, End float64
	// Bytes is the downloaded size.
	Bytes float64
	// DownloadedAt is the wall time the download completed.
	DownloadedAt float64
}

// Buffer holds the downloaded, unplayed segments of one content type,
// ordered by media time. Whether a segment in the middle can be discarded
// depends on the player configuration (MidBufferDiscard); the Buffer
// itself supports both operations and the Session enforces the policy.
type Buffer struct {
	segs    []BufferedSegment
	dropped []BufferedSegment // scratch reused by DropFromIndex

	// PlayableEnd memo. While the segment set is unchanged, the
	// contiguous range from any playhead inside [cachePh, cacheEnd] ends
	// exactly at cacheEnd: the merge chain that produced cacheEnd is the
	// same chain the rescan would walk, and a segment extending past
	// cacheEnd would have extended the original chain too. Every mutation
	// clears the memo.
	cachePh  float64
	cacheEnd float64
	cacheOK  bool
}

// emptied is an empty Buffer over b's arrays.
func (b *Buffer) emptied() Buffer { return Buffer{segs: b.segs[:0], dropped: b.dropped[:0]} }

// Insert adds a segment, keeping media order. Inserting an index that is
// already buffered replaces it and returns the old segment.
func (b *Buffer) Insert(s BufferedSegment) (old BufferedSegment, replaced bool) {
	b.cacheOK = false
	for i := range b.segs {
		if b.segs[i].Index == s.Index {
			old = b.segs[i]
			b.segs[i] = s
			return old, true
		}
	}
	// Shift-insert into the already-sorted slice, after any equal Start
	// (what a stable sort of the appended slice produced).
	b.segs = append(b.segs, s)
	i := len(b.segs) - 1
	for i > 0 && b.segs[i-1].Start > s.Start {
		b.segs[i] = b.segs[i-1]
		i--
	}
	b.segs[i] = s
	return BufferedSegment{}, false
}

// PlayableEnd returns the end of the contiguous buffered media range
// starting at the playhead. With an empty buffer (or a gap at the
// playhead) it returns the playhead itself.
func (b *Buffer) PlayableEnd(playhead float64) float64 {
	const eps = 1e-9
	if b.cacheOK && playhead >= b.cachePh && playhead <= b.cacheEnd {
		return b.cacheEnd
	}
	end := playhead
	for _, s := range b.segs {
		if s.Start > end+eps {
			break
		}
		if s.End > end {
			end = s.End
		}
	}
	b.cachePh, b.cacheEnd, b.cacheOK = playhead, end, true
	return end
}

// SegmentAt returns the buffered segment covering the given media time.
func (b *Buffer) SegmentAt(mediaTime float64) (BufferedSegment, bool) {
	const eps = 1e-9
	for _, s := range b.segs {
		if s.Start-eps <= mediaTime && mediaTime < s.End-eps {
			return s, true
		}
	}
	return BufferedSegment{}, false
}

// UnplayedCount returns the number of segments whose media end is after
// the playhead.
func (b *Buffer) UnplayedCount(playhead float64) int {
	n := 0
	for _, s := range b.segs {
		if s.End > playhead {
			n++
		}
	}
	return n
}

// DropFromIndex removes every buffered segment with Index ≥ index and
// returns them (the deque tail discard that contiguous replacement needs).
// The returned slice is reused by the next DropFromIndex call.
func (b *Buffer) DropFromIndex(index int) []BufferedSegment {
	b.cacheOK = false
	kept := b.segs[:0]
	dropped := b.dropped[:0]
	for _, s := range b.segs {
		if s.Index >= index {
			dropped = append(dropped, s)
		} else {
			kept = append(kept, s)
		}
	}
	b.segs = kept
	b.dropped = dropped
	return dropped
}

// GC discards segments that finished playing before the playhead.
// Segments are sorted by Start and a type's segments tile its media
// timeline, so their Ends ascend too: the played-out segments are a
// prefix, and when the first segment is still unplayed nothing changes,
// the PlayableEnd memo included.
func (b *Buffer) GC(playhead float64) {
	n := 0
	for n < len(b.segs) && b.segs[n].End <= playhead+1e-9 {
		n++
	}
	if n == 0 {
		return
	}
	b.cacheOK = false
	b.segs = b.segs[:copy(b.segs, b.segs[n:])]
}

package qoe

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/media"
	"repro/internal/traffic"
	"repro/internal/uimon"
)

// inferBufferPerSample is the buffer inference as it was first written —
// filter, allocate and sort a fresh span list per sample and media type —
// kept as the oracle for the one-sort version.
func inferBufferPerSample(tr *traffic.Result, samples []uimon.Sample) []BufferPoint {
	var out []BufferPoint
	for _, smp := range samples {
		pos := smp.Position
		v := contiguousEndPerSample(tr.Segments, media.TypeVideo, smp.T, pos)
		a := contiguousEndPerSample(tr.Segments, media.TypeAudio, smp.T, pos)
		out = append(out, BufferPoint{T: smp.T, VideoSec: math.Max(0, v-pos), AudioSec: math.Max(0, a-pos)})
	}
	return out
}

func contiguousEndPerSample(segs []traffic.SegmentDownload, typ media.MediaType, t, pos float64) float64 {
	type span struct{ start, end float64 }
	var spans []span
	for _, s := range segs {
		if s.Type != typ || s.End > t {
			continue
		}
		spans = append(spans, span{s.MediaStart, s.MediaStart + s.Duration})
	}
	if len(spans) == 0 {
		return pos
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	end := pos
	for _, sp := range spans {
		if sp.start > end+1e-6 {
			break
		}
		if sp.end > end {
			end = sp.end
		}
	}
	return end
}

// randomSegmentLog draws a download log with everything the inference
// has to cope with: replacements at an equal MediaStart (with a different
// duration, so which of the tied spans is visited first could matter),
// gaps left by skipped indices, a separate audio track on its own segment
// grid, and completions out of media order (parallel connections).
func randomSegmentLog(rng *rand.Rand) ([]traffic.SegmentDownload, []uimon.Sample) {
	segDur := float64(rng.Intn(8) + 2)
	n := rng.Intn(60) + 1
	var segs []traffic.SegmentDownload
	wall := rng.Float64() * 3
	add := func(typ media.MediaType, index int, dur float64) {
		start := wall
		wall += rng.Float64() * 4
		segs = append(segs, traffic.SegmentDownload{
			Type: typ, Index: index, Duration: dur, MediaStart: float64(index) * dur,
			Start: start, End: start + rng.Float64()*12,
		})
	}
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 {
			continue // a gap: this index is never downloaded
		}
		add(media.TypeVideo, i, segDur)
		for rng.Intn(5) == 0 { // replaced, possibly more than once
			add(media.TypeVideo, i, segDur*(0.5+rng.Float64()))
		}
	}
	if rng.Intn(2) == 0 {
		audioDur := float64(rng.Intn(4) + 1)
		for i := 0; float64(i)*audioDur < float64(n)*segDur; i++ {
			if rng.Intn(12) != 0 {
				add(media.TypeAudio, i, audioDur)
			}
		}
	}
	rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })

	var samples []uimon.Sample
	pos := 0.0
	for t := 0.0; t < wall+15; t++ {
		samples = append(samples, uimon.Sample{T: t, Position: pos})
		switch rng.Intn(8) {
		case 0: // stalled
		case 1: // a seek
			pos = rng.Float64() * float64(n) * segDur
		default:
			pos++
		}
	}
	return segs, samples
}

// TestInferBufferMatchesPerSampleSort: the one-sort inference returns the
// per-sample-sort oracle's points, float for float.
func TestInferBufferMatchesPerSampleSort(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		segs, samples := randomSegmentLog(rand.New(rand.NewSource(seed)))
		tr := &traffic.Result{Segments: segs}
		got, want := inferBuffer(tr, samples), inferBufferPerSample(tr, samples)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d points, oracle %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: point %d = %+v, oracle %+v", seed, i, got[i], want[i])
			}
		}
	}
}

package main

import (
	"runtime"
	"time"
)

// Host-speed normalisation. The sandbox this benchmark runs in changes
// speed by 10-25% for tens of seconds at a time (neighbours on the same
// physical core; a pure ALU loop shows it with no steal time reported),
// which is far more than the bounds the end-to-end metrics are held to.
// So every timed op is bracketed by a calibration loop that no change to
// the repository can speed up or slow down, and its time is scaled to a
// host running the loop at calibRefMs. On a quiet reference host the
// scaled time is the wall-clock time.

// calibRefMs is the reference speed: milliseconds per calibration pass
// on the box the baseline in README.md was measured on.
const calibRefMs = 1.30

var calibBuf = func() []byte {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	return buf
}()

var calibSink uint64

// calibrate times cmd/vodbench's calibration workload, FNV-1a over 1 MiB
// of fixed bytes, and returns milliseconds per pass: the median of five
// slices of eight passes, about 50 ms in all.
func calibrate() float64 {
	slices := make([]float64, 5)
	for s := range slices {
		const passes = 8
		start := time.Now()
		for i := 0; i < passes; i++ {
			h := uint64(14695981039346656037)
			for _, c := range calibBuf {
				h = (h ^ uint64(c)) * 1099511628211
			}
			calibSink += h
		}
		slices[s] = float64(time.Since(start).Nanoseconds()) / 1e6 / passes
	}
	return median(slices)
}

// settleEvery bounds how often short ops pay for settling.
const settleEvery = 200 * time.Millisecond

// hostState is the host's condition around the timed ops.
type hostState struct {
	last    time.Time
	calibMs float64
	calibs  []float64 // every calibration taken, for the log
	frozen  bool      // no settling: the CPU profile must see the ops only
}

// settle collects garbage, so that every op starts from the heap a
// fresh process would have, and re-calibrates; ops shorter than
// settleEvery share one settling. It returns the calibration.
func (h *hostState) settle() float64 {
	if !h.frozen && (h.last.IsZero() || time.Since(h.last) >= settleEvery) {
		runtime.GC()
		h.calibMs = calibrate()
		h.calibs = append(h.calibs, h.calibMs)
		h.last = time.Now()
	}
	return h.calibMs
}

// around runs fn between two settlings. fn returns the wall time of the
// part of it that counts; around returns that time in seconds, raw and
// scaled to the reference host speed.
func (h *hostState) around(fn func() (time.Duration, error)) (raw, norm float64, err error) {
	before := h.settle()
	d, err := fn()
	after := h.settle()
	raw = d.Seconds()
	return raw, raw * calibRefMs / ((before + after) / 2), err
}

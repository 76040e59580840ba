package adaptation

// Estimator tracks achieved download throughput and produces the
// bandwidth estimate the selection algorithms consume.
type Estimator interface {
	// Add records one completed exchange that delivered `bits` over
	// `seconds` of wall time (including request latency, which is what a
	// real client observes).
	Add(bits, seconds float64)
	// Estimate returns the current estimate in bits/s, or 0 before any
	// sample has been recorded.
	Estimate() float64
}

// EWMA is an exponentially weighted moving average estimator.
type EWMA struct {
	// Alpha is the weight of each new sample (0 < Alpha <= 1).
	Alpha float64

	value float64
	seen  bool
}

// NewEWMA returns an EWMA estimator with the given alpha.
func NewEWMA(alpha float64) *EWMA { return &EWMA{Alpha: alpha} }

// Add implements Estimator.
func (e *EWMA) Add(bits, seconds float64) {
	if seconds <= 0 {
		return
	}
	sample := bits / seconds
	if !e.seen {
		e.value = sample
		e.seen = true
		return
	}
	e.value = e.Alpha*sample + (1-e.Alpha)*e.value
}

// Estimate implements Estimator.
func (e *EWMA) Estimate() float64 {
	if !e.seen {
		return 0
	}
	return e.value
}

// SlidingHarmonic estimates bandwidth as the duration-weighted mean of the
// last Window samples (total bits over total time), which behaves like a
// harmonic mean of per-sample rates and is robust to short bursts.
type SlidingHarmonic struct {
	// Window is the number of samples retained.
	Window int

	bits, secs []float64
}

// NewSlidingHarmonic returns a sliding-window estimator over n samples.
func NewSlidingHarmonic(n int) *SlidingHarmonic { return &SlidingHarmonic{Window: n} }

// Add implements Estimator.
func (e *SlidingHarmonic) Add(bits, seconds float64) {
	if seconds <= 0 {
		return
	}
	e.bits = append(e.bits, bits)
	e.secs = append(e.secs, seconds)
	if w := e.Window; w > 0 && len(e.bits) > w {
		e.bits = e.bits[len(e.bits)-w:]
		e.secs = e.secs[len(e.secs)-w:]
	}
}

// Estimate implements Estimator.
func (e *SlidingHarmonic) Estimate() float64 {
	tb, ts := 0.0, 0.0
	for i := range e.bits {
		tb += e.bits[i]
		ts += e.secs[i]
	}
	if ts == 0 {
		return 0
	}
	return tb / ts
}

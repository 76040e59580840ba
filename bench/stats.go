package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middles for an even
// count); 0 for an empty sample.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than an anecdote.
const tailMinBeyond = 10

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// highestPercentile picks the highest candidate percentile that still
// has at least tailMinBeyond samples strictly beyond it and returns it
// with its value (nearest-rank) and the count beyond. ok is false when
// the sample is too small for any candidate.
func highestPercentile(vs []float64) (p, value float64, beyond int, ok bool) {
	n := len(vs)
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	for _, cand := range tailPercentiles {
		rank := int(math.Ceil(cand*float64(n)/100 - 1e-9)) // 1-based nearest rank; the epsilon keeps 99.9% of 20000 at 19980
		if rank < 1 || n-rank < tailMinBeyond {
			continue
		}
		return cand, s[rank-1], n - rank, true
	}
	return 0, 0, 0, false
}

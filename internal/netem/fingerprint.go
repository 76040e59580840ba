package netem

import "math"

// Fingerprint returns a stable 64-bit content hash of the bandwidth
// schedule: the sample count and the samples, by exact float bit pattern
// (FNV-1a). The display name is deliberately excluded, so two differently
// named profiles with identical schedules — e.g. a slice and a copy —
// collide on purpose and can share cache entries.
func (p *Profile) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(u uint64) {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (u >> s & 0xff)) * prime
		}
	}
	mix(uint64(len(p.Samples)))
	for _, s := range p.Samples {
		mix(math.Float64bits(s))
	}
	return h
}

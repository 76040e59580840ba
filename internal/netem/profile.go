// Package netem provides the network-emulation substrate of the study:
// piecewise-constant bandwidth profiles of 1 s samples, the 14 synthetic
// cellular traces standing in for the paper's recorded ones (Figure 3),
// step and constant profiles for black-box probing, and a text writer for
// traces.
//
// The paper shaped a real WiFi link with the Linux tc tool while replaying
// throughput traces recorded over cellular at 1 s granularity; here a
// Profile plays the same role as the tc rate schedule, consumed by the
// deterministic network simulator in internal/simnet, which reads sample
// k of every profile it drives at its first event in second k.
package netem

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Profile is a piecewise-constant bandwidth schedule at the paper's 1 s
// recording granularity: sample i applies to the half-open second
// [i, i+1). Beyond the last sample the profile repeats from the beginning,
// so sessions longer than a trace keep seeing realistic variation (the
// paper's traces match its 10 minute sessions exactly; looping makes the
// length irrelevant).
type Profile struct {
	// Name identifies the profile, e.g. "cellular-03".
	Name string
	// Samples holds the available bandwidth in bits/s, one per second.
	Samples []float64
}

// At returns the available bandwidth in bits/s at time t (t may exceed the
// trace duration; the trace loops).
func (p *Profile) At(t float64) float64 {
	if len(p.Samples) == 0 {
		return 0
	}
	i := int(math.Floor(t)) % len(p.Samples)
	if i < 0 {
		i += len(p.Samples)
	}
	return p.Samples[i]
}

// NextBoundary returns the earliest time strictly greater than t at which
// the bandwidth may change: the next whole second.
func (p *Profile) NextBoundary(t float64) float64 {
	if len(p.Samples) == 0 {
		return math.Inf(1)
	}
	return math.Floor(t) + 1
}

// Integral returns the number of bits deliverable in [a, b] at full link
// utilisation.
func (p *Profile) Integral(a, b float64) float64 {
	if b <= a || len(p.Samples) == 0 {
		return 0
	}
	total := 0.0
	t := a
	for t < b {
		next := min(p.NextBoundary(t), b)
		total += p.At(t) * (next - t)
		t = next
	}
	return total
}

// Cursor is a stateless read position, kept as a shim for the netem probe
// in bench/probes.go; ROADMAP item 1 (f) deletes it with that probe.
type Cursor struct{ p *Profile }

// Cursor returns a cursor over the profile.
func (p *Profile) Cursor() Cursor { return Cursor{p} }

// ValueNext returns (p.At(t), p.NextBoundary(t)): the bandwidth at t and
// the next whole second, where it may change.
func (c *Cursor) ValueNext(t float64) (val, next float64) { return c.p.At(t), c.p.NextBoundary(t) }

// Average returns the mean bandwidth in bits/s over one trace period.
func (p *Profile) Average() float64 {
	if len(p.Samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range p.Samples {
		s += v
	}
	return s / float64(len(p.Samples))
}

// Min returns the minimum sample in bits/s.
func (p *Profile) Min() float64 {
	m := math.Inf(1)
	for _, v := range p.Samples {
		m = min(m, v)
	}
	return m
}

// Max returns the maximum sample in bits/s.
func (p *Profile) Max() float64 {
	m := 0.0
	for _, v := range p.Samples {
		m = max(m, v)
	}
	return m
}

// Split cuts the profile into consecutive chunks of chunkDur seconds,
// discarding a final partial chunk. Figure 15 splits the 5 lowest 10-minute
// profiles into 50 one-minute profiles this way.
func (p *Profile) Split(chunkDur float64) []*Profile {
	per := int(chunkDur)
	if per <= 0 {
		return nil
	}
	var out []*Profile
	for i := 0; i+per <= len(p.Samples); i += per {
		out = append(out, &Profile{
			Name:    fmt.Sprintf("%s/%d", p.Name, len(out)+1),
			Samples: append([]float64(nil), p.Samples[i:i+per]...),
		})
	}
	return out
}

// Constant returns a profile with fixed bandwidth bps for dur seconds.
func Constant(name string, bps, dur float64) *Profile {
	n := int(math.Ceil(dur))
	if n < 1 {
		n = 1
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = bps
	}
	return &Profile{Name: name, Samples: s}
}

// Step returns a profile that stays at before until switchAt seconds and
// then at after until dur. The paper uses such "step function" profiles to
// probe adaptation to bandwidth increases and decreases (§3.3.4).
func Step(name string, before, after, switchAt, dur float64) *Profile {
	n := int(math.Ceil(dur))
	s := make([]float64, n)
	for i := range s {
		if float64(i) < switchAt {
			s[i] = before
		} else {
			s[i] = after
		}
	}
	return &Profile{Name: name, Samples: s}
}

// Format writes the profile in the trace text format, one 1 s sample a
// line:
//
//	# <name>
//	<bits-per-second>
//	...
func (p *Profile) Format(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", p.Name)
	for _, v := range p.Samples {
		fmt.Fprintf(bw, "%g\n", v)
	}
	return bw.Flush()
}

// SortByAverage orders profiles by ascending mean bandwidth and renames
// them "<prefix>-01".."<prefix>-NN", mirroring the paper's "we sort them
// based on their average bandwidth and denote them Profile 1 to 14".
func SortByAverage(prefix string, ps []*Profile) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Average() < ps[j].Average() })
	for i, p := range ps {
		p.Name = fmt.Sprintf("%s-%02d", prefix, i+1)
	}
}

// ParseSpec builds a profile from a compact command-line spec:
//
//	"3"                synthetic cellular profile 3
//	"const:2.5"        constant 2.5 Mbit/s
//	"step:4,0.8,200"   4 Mbit/s, dropping to 0.8 Mbit/s at t=200 s
//
// dur bounds the generated constant/step profiles in seconds.
func ParseSpec(spec string, dur float64) (*Profile, error) {
	switch {
	case strings.HasPrefix(spec, "const:"):
		m, err := strconv.ParseFloat(strings.TrimPrefix(spec, "const:"), 64)
		if err != nil || m <= 0 {
			return nil, fmt.Errorf("netem: bad const spec %q", spec)
		}
		return Constant(spec, m*1e6, dur), nil
	case strings.HasPrefix(spec, "step:"):
		parts := strings.Split(strings.TrimPrefix(spec, "step:"), ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("netem: step spec needs before,after,switch-at: %q", spec)
		}
		var v [3]float64
		for i, s := range parts {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil || f < 0 {
				return nil, fmt.Errorf("netem: bad step spec %q", spec)
			}
			v[i] = f
		}
		return Step(spec, v[0]*1e6, v[1]*1e6, v[2], dur), nil
	default:
		i, err := strconv.Atoi(spec)
		if err != nil || i < 1 || i > CellularCount {
			return nil, fmt.Errorf("netem: profile must be 1..%d, const:<Mbps> or step:<Mbps>,<Mbps>,<s>", CellularCount)
		}
		return Cellular(i), nil
	}
}

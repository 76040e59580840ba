package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The cost ladder: every CPU sample of the traced run is charged to one
// layer, and the layers' shares sum to 1.

// ladderLayers are the ladder's rungs in reporting order. The last two
// are not repository packages: runtime.gc collects the collector's own
// work (background workers, assists, sweeping), other everything that
// has no frame in a ladder package (the benchmark's own code, the
// scheduler, idle).
var ladderLayers = []string{
	"netem", "simnet", "player", "adaptation", "cdn", "origin", "fleet",
	"sched", "expcache", "experiments", "analysis", "textplot",
	"runtime.gc", "other",
}

// layerOfPkg maps a package under repro/internal to its rung. Packages
// that are not listed (probe, energy, replacement, ...) are transparent:
// attribution continues to their caller.
var layerOfPkg = map[string]string{
	"netem": "netem", "simnet": "simnet", "player": "player",
	"adaptation": "adaptation", "cdn": "cdn", "fleet": "fleet",
	"sched": "sched", "expcache": "expcache", "experiments": "experiments",
	"textplot": "textplot",
	"origin":   "origin", "manifest": "origin", "media": "origin", "services": "origin",
	"traffic": "analysis", "uimon": "analysis", "qoe": "analysis",
}

const internalPrefix = "repro/internal/"

// layerOfStack charges one sampled stack (function names, innermost
// frame first). Collector work wins wherever it sits in the stack;
// otherwise the innermost frame of a ladder package decides, so
// math.Min called from simnet counts as simnet.
func layerOfStack(funcs []string) string {
	for _, f := range funcs {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return "runtime.gc"
		}
	}
	for _, f := range funcs {
		rest, ok := strings.CutPrefix(f, internalPrefix)
		if !ok {
			continue
		}
		// "simnet.(*Network).Step" and "manifest/dash.Encode" both
		// reduce to the first path element.
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		if layer, ok := layerOfPkg[rest]; ok {
			return layer
		}
	}
	return "other"
}

// stackSample is one decoded profile sample.
type stackSample struct {
	funcs []string // innermost first, inlined frames expanded
	value int64    // the profile's last sample value (CPU nanoseconds)
}

// ladderShares buckets samples by layer and returns each rung's share
// of the total, plus the total value. With no samples every share is 0.
func ladderShares(samples []stackSample) (map[string]float64, int64) {
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		byLayer[layerOfStack(s.funcs)] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(ladderLayers))
	if total > 0 {
		for _, l := range ladderLayers {
			shares[l] = float64(byLayer[l]) / float64(total)
		}
	}
	return shares, total
}

// decodeProfile reads a gzip-compressed pprof protobuf (what
// runtime/pprof writes) far enough to recover each sample's stack of
// function names and its last value. Only the fields needed for that
// are interpreted; see github.com/google/pprof/proto/profile.proto.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		strs     []string
		rawSamps []rawSample
		locLines = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, packed or not
					if b == nil {
						s.locs = append(s.locs, v)
						return nil
					}
					return eachVarint(b, func(u uint64) { s.locs = append(s.locs, u) })
				case 2: // value, packed or not: keep the last
					if b == nil {
						s.value = int64(v)
						return nil
					}
					return eachVarint(b, func(u uint64) { s.value = int64(u) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			rawSamps = append(rawSamps, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := make([]stackSample, len(rawSamps))
	for i, rs := range rawSamps {
		out[i].value = rs.value
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					out[i].funcs = append(out[i].funcs, strs[idx])
				}
			}
		}
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. Varint and fixed
// fields arrive in v with b nil; length-delimited fields arrive in b.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errTruncated
			}
			msg = msg[size:] // no fixed-width field is needed
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			body := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, body); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

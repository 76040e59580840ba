package cdn

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// CacheConfig parameterizes the edge-cache tier for one fleet run. The
// zero value means "no cache tier" — requests go straight to the edge
// link exactly as before the tier existed. All fields are part of the
// fleet determinism contract: they join cell fingerprints and the
// report's config echo.
type CacheConfig struct {
	// EdgeBytes is the per-edge-node capacity in bytes. <= 0 means
	// unlimited (every admitted object fits forever).
	EdgeBytes float64 `json:"edgeBytes"`
	// MetroBytes is the per-shard metro cache capacity in bytes.
	// 0 disables the metro tier (edge misses go straight to origin),
	// -1 means unlimited, > 0 is a byte cap.
	MetroBytes float64 `json:"metroBytes"`
	// TTLSec is the freshness lifetime of a cached object on the
	// virtual clock. <= 0 means objects never expire.
	TTLSec float64 `json:"ttlSec"`
	// EdgeNodes is the number of edge nodes per cell the balancer
	// routes across. <= 0 defaults to 4.
	EdgeNodes int `json:"edgeNodes"`
	// BackhaulMbps is the shared cell backhaul capacity that cache
	// misses traverse. <= 0 defaults to 200 Mbps.
	BackhaulMbps float64 `json:"backhaulMbps"`
	// MetroRTTSec is the extra first-byte latency of a metro hit.
	// <= 0 defaults to 20 ms.
	MetroRTTSec float64 `json:"metroRTTSec"`
	// OriginRTTSec is the extra first-byte latency of an origin fetch.
	// <= 0 defaults to 80 ms.
	OriginRTTSec float64 `json:"originRTTSec"`
	// ColdCells names cells whose caches start empty instead of warm
	// ("0-15,40" syntax). Empty means every cell starts warm.
	ColdCells string `json:"coldCells,omitempty"`
	// FailCell / FailAtSec inject an edge-node failure: at virtual
	// time FailAtSec, node 0 of cell FailCell dies (cache dropped,
	// sessions re-route on their next request). Active iff FailAtSec > 0.
	FailCell  int     `json:"failCell,omitempty"`
	FailAtSec float64 `json:"failAtSec,omitempty"`
}

// Defaults for unset knobs.
const (
	defaultEdgeNodes    = 4
	defaultBackhaulMbps = 200
	defaultMetroRTTSec  = 0.02
	defaultOriginRTTSec = 0.08
)

// Normalized fills defaulted fields so that two specs that mean the
// same run fingerprint and echo identically.
func (c CacheConfig) Normalized() CacheConfig {
	if c.EdgeNodes <= 0 {
		c.EdgeNodes = defaultEdgeNodes
	}
	if c.BackhaulMbps <= 0 {
		c.BackhaulMbps = defaultBackhaulMbps
	}
	if c.MetroRTTSec <= 0 {
		c.MetroRTTSec = defaultMetroRTTSec
	}
	if c.OriginRTTSec <= 0 {
		c.OriginRTTSec = defaultOriginRTTSec
	}
	return c
}

// Transparent reports whether this config cannot change any request's
// service: unlimited warm edge caches that never expire, no cold
// cells and no failure injection mean every media request is an edge
// hit, which is byte-identical to having no cache tier at all. fleet
// normalizes a transparent config to nil so the report bytes match
// the cache-disabled tree exactly.
func (c CacheConfig) Transparent() bool {
	return c.EdgeBytes <= 0 && c.TTLSec <= 0 && c.ColdCells == "" && c.FailAtSec <= 0
}

// ParseCacheSpec parses the -cache flag syntax:
//
//	edge:512MiB,metro:8GiB,ttl=6h,nodes=4,backhaul=200,mrtt=20ms,ortt=80ms
//
// Every clause is optional; "edge:0" / "metro:-1" mean unlimited,
// "metro:0" disables the metro tier.
func ParseCacheSpec(s string) (CacheConfig, error) {
	var c CacheConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, ":")
		if !ok {
			key, val, ok = strings.Cut(part, "=")
		}
		if !ok {
			return c, fmt.Errorf("cache spec %q: clause %q needs key:value", s, part)
		}
		var err error
		switch key {
		case "edge":
			c.EdgeBytes, err = parseBytes(val)
		case "metro":
			c.MetroBytes, err = parseBytes(val)
		case "ttl":
			c.TTLSec, err = parseDuration(val)
		case "nodes":
			c.EdgeNodes, err = strconv.Atoi(val)
		case "backhaul":
			c.BackhaulMbps, err = parseFinite(val, 1)
		case "mrtt":
			c.MetroRTTSec, err = parseDuration(val)
		case "ortt":
			c.OriginRTTSec, err = parseDuration(val)
		default:
			return c, fmt.Errorf("cache spec %q: unknown key %q", s, key)
		}
		if err != nil {
			return c, fmt.Errorf("cache spec %q: clause %q: %v", s, part, err)
		}
	}
	return c, nil
}

// ParseFailSpec parses the -cachefail flag syntax: "cell=3,t=120s".
func ParseFailSpec(s string, c *CacheConfig) error {
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("fail spec %q: clause %q needs key=value", s, part)
		}
		var err error
		switch key {
		case "cell":
			if c.FailCell, err = strconv.Atoi(val); err == nil && c.FailCell < 0 {
				err = fmt.Errorf("cell index must be >= 0")
			}
		case "t":
			c.FailAtSec, err = parseDuration(val)
		default:
			return fmt.Errorf("fail spec %q: unknown key %q", s, key)
		}
		if err != nil {
			return fmt.Errorf("fail spec %q: clause %q: %v", s, part, err)
		}
	}
	if c.FailAtSec <= 0 {
		return fmt.Errorf("fail spec %q: needs t=<time> > 0", s)
	}
	return nil
}

// ColdSet materializes ColdCells as a membership set (nil when every
// cell starts warm).
func (c CacheConfig) ColdSet() (map[int]bool, error) {
	if c.ColdCells == "" {
		return nil, nil
	}
	cells, err := ParseCellSet(c.ColdCells)
	if err != nil {
		return nil, err
	}
	set := make(map[int]bool, len(cells))
	for _, i := range cells {
		set[i] = true
	}
	return set, nil
}

// maxCells bounds the cell indices ParseCellSet accepts: 1<<22 cells is
// about 100M sessions at the default 24 clients per cell, two orders of
// magnitude past the largest fleet this repository runs. Without a
// bound a range like "0-4000000000" is materialized index by index.
const maxCells = 1 << 22

// ParseCellSet parses "0-15,40,64-79" into a sorted, deduplicated
// slice of cell indices, each below maxCells.
func ParseCellSet(s string) ([]int, error) {
	var ranges [][2]int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil || a < 0 {
			return nil, fmt.Errorf("cell set %q: bad index %q", s, lo)
		}
		b := a
		if isRange {
			b, err = strconv.Atoi(hi)
			if err != nil || b < a {
				return nil, fmt.Errorf("cell set %q: bad range %q", s, part)
			}
		}
		if b >= maxCells {
			return nil, fmt.Errorf("cell set %q: clause %q: index %d is not below the %d-cell limit", s, part, b, maxCells)
		}
		ranges = append(ranges, [2]int{a, b})
	}
	// Merging sorted ranges keeps the work proportional to the result
	// however often the clauses overlap.
	sort.Slice(ranges, func(i, j int) bool { return ranges[i][0] < ranges[j][0] })
	out := []int{}
	next := 0 // smallest index not yet emitted
	for _, r := range ranges {
		for i := max(r[0], next); i <= r[1]; i++ {
			out = append(out, i)
		}
		next = max(next, r[1]+1)
	}
	return out, nil
}

// parseBytes accepts "512MiB", "8GiB", "64KiB", "1024" (raw bytes),
// plus decimal "MB"/"GB"/"KB" forms, and the sentinels 0 / -1.
func parseBytes(s string) (float64, error) {
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "KiB"):
		mult, s = 1024, strings.TrimSuffix(s, "KiB")
	case strings.HasSuffix(s, "MiB"):
		mult, s = 1024*1024, strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "GiB"):
		mult, s = 1024*1024*1024, strings.TrimSuffix(s, "GiB")
	case strings.HasSuffix(s, "KB"):
		mult, s = 1e3, strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "MB"):
		mult, s = 1e6, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "GB"):
		mult, s = 1e9, strings.TrimSuffix(s, "GB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	}
	v, err := parseFinite(s, mult)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return -1, nil
	}
	return v, nil
}

// parseDuration accepts "6h", "120s", "90m", "20ms" or a bare number
// of seconds.
func parseDuration(s string) (float64, error) {
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "ms"):
		mult, s = 1e-3, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "h"):
		mult, s = 3600, strings.TrimSuffix(s, "h")
	case strings.HasSuffix(s, "m"):
		mult, s = 60, strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "s"):
		s = strings.TrimSuffix(s, "s")
	}
	return parseFinite(s, mult)
}

// parseFinite parses s and scales it by mult. strconv.ParseFloat takes
// "NaN" and "Inf", and a finite value can overflow under mult; neither
// is a size, a rate or a time, and NaN would reach the report's JSON.
func parseFinite(s string, mult float64) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, err
	}
	if v *= mult; math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is not a finite number", s)
	}
	return v, nil
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of a traced run. Spans are recorded from
// the benchmark's own files, around the calls into each layer; the
// program under test carries none.
type span struct {
	ID       int
	Parent   int // -1 for a root span
	Name     string
	Workload string
	Start    time.Duration // offset from the tracer's origin
	End      time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per boundary.
// The benchmark is a single caller, so the open spans form a stack.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: time.Since(t.origin)})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = time.Since(t.origin)
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once, children are clipped to the parent).
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time over spans sharing a name, in seconds.
func selfByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d.Seconds()
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format;
// chrome://tracing and https://ui.perfetto.dev open the file as is.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans to dir/trace-<workload>.json.
func (t *tracer) writeChrome(dir string) (string, error) {
	self := selfTimes(t.spans)
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "workload": s.Workload,
				"self_us": float64(self[i].Nanoseconds()) / 1e3,
			},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

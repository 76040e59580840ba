package simclock

import (
	"testing"

	"repro/internal/lint/linttest"
)

func TestSimclock(t *testing.T) {
	linttest.Run(t, Analyzer, "internal/simnet", "cmd/wallclock")
}

func TestInScope(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"repro/internal/simnet", true},
		{"repro/internal/manifest/hls", true},
		{"repro/internal/fleet", true},
		{"repro/internal/cdn", true},
		{"repro/internal/sched", true},
		{"repro/internal/expcache", true},
		{"repro/internal/experiments_test", true},
		{"repro/cmd/vodreport", false},
		{"repro/examples/quickstart", false},
		{"repro/internal/lint/simclock", false},
		{"repro/internal/lint/flow", false},
		{"repro/bench", false},
		{"repro", false},
	}
	for _, c := range cases {
		if got := InScope(c.path); got != c.want {
			t.Errorf("InScope(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var blankRuns = regexp.MustCompile(`\n{3,}`)

// squeeze drops the per-experiment timing lines and collapses runs of
// blank lines, as `make report-cmp` does before comparing.
func squeeze(s string) string {
	var keep []string
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.HasPrefix(line, "_regenerated in ") {
			keep = append(keep, line)
		}
	}
	return blankRuns.ReplaceAllString(strings.Join(keep, ""), "\n\n")
}

// TestExpSelectsCommittedSection holds -exp to the full report's code
// path: one selected experiment renders exactly its section of the
// committed REPORT.md.
func TestExpSelectsCommittedSection(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "REPORT.md"))
	if err != nil {
		t.Fatal(err)
	}
	report := squeeze(string(committed))
	start := strings.Index(report, "## fig8 ")
	if start < 0 {
		t.Fatal("REPORT.md has no fig8 section")
	}
	want := report[start:]
	if next := strings.Index(want, "\n## "); next >= 0 {
		want = want[:next+1]
	}

	out := filepath.Join(t.TempDir(), "fig8.md")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-stable", "-q", "-exp", "fig8", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if squeeze(string(got)) != want {
		t.Errorf("-exp fig8 wrote\n%s\nwant the committed section\n%s", got, want)
	}
}

func TestUnknownExpExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig8,nope", "-out", "-"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if msg := stderr.String(); !strings.Contains(msg, `"nope"`) || !strings.Contains(msg, "-list") {
		t.Errorf("stderr %q does not name the id and point at -list", msg)
	}
	if stdout.Len() != 0 {
		t.Errorf("wrote %q before rejecting the id", stdout.String())
	}
}

func TestListPrintsEveryID(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	all := experiments.All()
	if len(lines) != len(all) {
		t.Fatalf("-list printed %d lines for %d experiments", len(lines), len(all))
	}
	for i, e := range all {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != e.ID {
			t.Errorf("line %d is %q, want id %s", i, lines[i], e.ID)
		}
	}
}

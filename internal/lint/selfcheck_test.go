package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analyzers"
)

// TestRepoLintClean runs the full analyzer suite plus the stale-
// suppression audit over this module, through the same lint.CheckModule
// call `make lint` makes, and asserts zero unsuppressed findings and
// zero dead //vodlint:allow directives. Plain `go test ./...` (and the
// -race tier) therefore carries the lint verdict.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-module lint load in -short mode")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	found, err := lint.CheckModule(root, analyzers.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range found {
		t.Errorf("%s", d)
	}
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}

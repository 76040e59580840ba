package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analyzers"
)

// TestRepoLintClean runs the full analyzer suite plus the stale-
// suppression audit over this module and asserts zero unsuppressed
// findings and zero dead //vodlint:allow directives — the same
// invariant `make lint` gates in CI, enforced here so plain
// `go test ./...` (and the nightly -race run) catches a contract
// violation even when the make targets are skipped.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-module lint load in -short mode")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	pkgs, err := lint.Load(root)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	suite := analyzers.All()
	audit := lint.NewAudit(suite)
	for _, pkg := range pkgs {
		diags, err := lint.RunWithAudit(pkg, suite, audit)
		if err != nil {
			t.Fatalf("run %s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("unsuppressed finding: %s", d)
		}
	}
	for _, d := range audit.Stale() {
		t.Errorf("suppression audit: %s", d)
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

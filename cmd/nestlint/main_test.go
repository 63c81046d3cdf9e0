package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// moduleRoot walks up from the working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// build compiles the nestlint binary once per test run.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nestlint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nestlint")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// moduleCopy copies go.mod and the non-test Go files of pkg and of every
// in-module package it imports from the module at root into a fresh
// temporary directory, and returns that directory. Subtests that seed
// a violation write it into the copy, so the live tree that other
// packages' tests list at the same time never changes.
func moduleCopy(t *testing.T, root, pkg string) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "list", "-deps", "-f", "{{if not .Standard}}{{.Dir}}{{range .GoFiles}}|{{.}}{{end}}{{end}}", pkg)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps %s: %v", pkg, err)
	}
	copyFile := func(rel string) {
		b, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile("go.mod")
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line == "" {
			continue
		}
		parts := strings.Split(line, "|")
		rel, err := filepath.Rel(root, parts[0])
		if err != nil || strings.HasPrefix(rel, "..") {
			t.Fatalf("package directory %s is outside the module", parts[0])
		}
		for _, f := range parts[1:] {
			copyFile(filepath.Join(rel, f))
		}
	}
	return dir
}

func TestCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the nestlint binary")
	}
	bin := build(t)
	root := moduleRoot(t)

	t.Run("VersionProbe", func(t *testing.T) {
		// go vet's tool-ID probe requires "<name> version <id>".
		out, err := exec.Command(bin, "-V=full").Output()
		if err != nil {
			t.Fatal(err)
		}
		want := "nestlint version " + analysis.Version + "\n"
		if string(out) != want {
			t.Errorf("-V=full = %q, want %q", out, want)
		}
	})

	t.Run("List", func(t *testing.T) {
		out, err := exec.Command(bin, "-list").Output()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range analysis.Suite() {
			if !strings.Contains(string(out), a.Name) {
				t.Errorf("-list output missing analyzer %s:\n%s", a.Name, out)
			}
		}
		if got, want := len(strings.Split(strings.TrimSpace(string(out)), "\n")), len(analysis.Suite()); got != want {
			t.Errorf("-list printed %d lines, want %d", got, want)
		}
	})

	t.Run("CleanRepoExitsZero", func(t *testing.T) {
		cmd := exec.Command(bin, "-C", root, "./...")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("nestlint ./... on clean repo failed: %v\n%s", err, out)
		}
	})

	t.Run("JSONOnCleanPackage", func(t *testing.T) {
		out, err := exec.Command(bin, "-C", root, "-json", "./internal/sim").Output()
		if err != nil {
			t.Fatalf("nestlint -json ./internal/sim: %v", err)
		}
		var diags []analysis.Diagnostic
		if err := json.Unmarshal(out, &diags); err != nil {
			t.Fatalf("-json output is not a diagnostic array: %v\n%s", err, out)
		}
		if len(diags) != 0 {
			t.Errorf("clean package produced %d diagnostics: %+v", len(diags), diags)
		}
	})

	t.Run("SARIFOnCleanPackage", func(t *testing.T) {
		out, err := exec.Command(bin, "-C", root, "-sarif", "./internal/sim").Output()
		if err != nil {
			t.Fatalf("nestlint -sarif ./internal/sim: %v", err)
		}
		var log struct {
			Version string `json:"version"`
			Runs    []struct {
				Results []any `json:"results"`
			} `json:"runs"`
		}
		if err := json.Unmarshal(out, &log); err != nil {
			t.Fatalf("-sarif output is not valid JSON: %v\n%s", err, out)
		}
		if log.Version != "2.1.0" || len(log.Runs) != 1 {
			t.Fatalf("-sarif output is not a single-run SARIF 2.1.0 log:\n%s", out)
		}
		if log.Runs[0].Results == nil || len(log.Runs[0].Results) != 0 {
			t.Errorf("clean package produced SARIF results: %v", log.Runs[0].Results)
		}
	})

	t.Run("JSONAndSARIFExclusive", func(t *testing.T) {
		err := exec.Command(bin, "-json", "-sarif", "./internal/sim").Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("-json -sarif together: err=%v, want exit status 2", err)
		}
	})

	t.Run("UnusedDirectiveExitsOne", func(t *testing.T) {
		// A reasoned //lint: comment that suppresses nothing must fail
		// the run under -unused-directives and pass without it.
		root := moduleCopy(t, root, "./internal/cfs")
		seed := filepath.Join(root, "internal", "cfs", "lintseed_stale_directive.go")
		src := "package cfs\n\n//lint:simtime justified once, code since rewritten\nvar lintSeedStale int\n"
		if err := os.WriteFile(seed, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(seed)
		if out, err := exec.Command(bin, "-C", root, "./internal/cfs").CombinedOutput(); err != nil {
			t.Fatalf("stale directive failed the run without -unused-directives: %v\n%s", err, out)
		}
		cmd := exec.Command(bin, "-C", root, "-unused-directives", "./internal/cfs")
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("-unused-directives on stale comment: err=%v, want exit status 1\n%s", err, out)
		}
		if !strings.Contains(string(out), "unused-directive") || !strings.Contains(string(out), "lintseed_stale_directive.go:3") {
			t.Errorf("diagnostic missing pseudo-analyzer name or file:line of the stale comment:\n%s", out)
		}
	})

	t.Run("SeededViolationExitsOne", func(t *testing.T) {
		// A wall-clock call seeded into internal/cfs must fail the run —
		// the same behavior the CI lint job relies on.
		root := moduleCopy(t, root, "./internal/cfs")
		seed := filepath.Join(root, "internal", "cfs", "lintseed_test_violation.go")
		src := "package cfs\n\nimport \"time\"\n\nfunc lintSeedViolation() time.Time { return time.Now() }\n"
		if err := os.WriteFile(seed, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(seed)
		cmd := exec.Command(bin, "-C", root, "./internal/cfs")
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("seeded violation: err=%v, want exit status 1\n%s", err, out)
		}
		if !strings.Contains(string(out), "simtime") || !strings.Contains(string(out), "time.Now") {
			t.Errorf("diagnostic missing analyzer name or call site:\n%s", out)
		}
	})
}

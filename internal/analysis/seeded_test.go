package analysis_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/antest"
)

// Seeded-violation tests: copy a real package, textually inject the
// exact bug class an analyzer exists to catch, and assert nestlint
// reports it. Fixtures prove the analyzers work on distilled shapes;
// these prove they work on the production code they patrol, so a
// regression that silently stops matching the real pool idioms fails
// here rather than in review.

// mutatePackage copies pkgDir's non-test Go sources into a temp dir,
// applies the old→new rewrite to file (failing if old is absent or
// ambiguous), and returns the copy's path.
func mutatePackage(t *testing.T, pkgDir, file, old, new string) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		t.Fatal(err)
	}
	mutated := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(pkgDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == file {
			if n := strings.Count(string(data), old); n != 1 {
				t.Fatalf("mutation anchor occurs %d times in %s, want 1:\n%s", n, file, old)
			}
			data = []byte(strings.Replace(string(data), old, new, 1))
			mutated = true
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !mutated {
		t.Fatalf("mutation target %s not found in %s", file, pkgDir)
	}
	return dir
}

// runOn loads the mutated package under its real import path and runs
// one analyzer over it.
func runOn(t *testing.T, dir, path string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	pkg := antest.LoadDir(t, dir, path)
	return analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
}

// expect asserts that every diagnostic matches re in file, and that at
// least one fired.
func expect(t *testing.T, diags []analysis.Diagnostic, file string, re *regexp.Regexp) {
	t.Helper()
	if len(diags) == 0 {
		t.Fatalf("seeded violation not caught: no diagnostics")
	}
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) != file || !re.MatchString(d.Message) {
			t.Errorf("unexpected diagnostic %s: [%s] %s", d.Pos, d.Analyzer, d.Message)
		}
	}
}

// TestSeededUseAfterRecycle reorders the copy-then-recycle discipline
// in evRec.RunAt (internal/cpu/events.go) so the record's fields are
// read after m.recycle(r) returned it to the pool — the canonical
// use-after-recycle — and asserts poollife reports every stale read.
func TestSeededUseAfterRecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a mutated copy of internal/cpu")
	}
	root := repoRoot(t)
	dir := mutatePackage(t, filepath.Join(root, "internal", "cpu"), "events.go",
		"	m, kind, task, core, until := r.m, r.kind, r.task, r.core, r.until\n"+
			"	m.recycle(r)\n",
		"	m := r.m\n"+
			"	m.recycle(r)\n"+
			"	kind, task, core, until := r.kind, r.task, r.core, r.until\n")
	diags := runOn(t, dir, "repro/internal/cpu", analysis.Poollife)
	expect(t, diags, "events.go",
		regexp.MustCompile(`pooled record r used after release \(released at events\.go:\d+\)`))
}

// TestSeededMapRange rewrites workload.Names (internal/workload/
// workload.go) to collect the registry's keys with a bare range and no
// sort, so -list and every name-ordered output would follow the random
// map order, and asserts maporder reports the loop.
func TestSeededMapRange(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a mutated copy of internal/workload")
	}
	root := repoRoot(t)
	dir := mutatePackage(t, filepath.Join(root, "internal", "workload"), "workload.go",
		"	return ordered.Keys(registry)\n",
		"	out := make([]string, 0, len(registry))\n"+
			"	for n := range registry {\n"+
			"		out = append(out, n)\n"+
			"	}\n"+
			"	return out\n")
	// The rewrite leaves workload.go's ordered import unused.
	dir = mutatePackage(t, dir, "workload.go", "	\"repro/internal/ordered\"\n", "")
	diags := runOn(t, dir, "repro/internal/workload", analysis.Maporder)
	expect(t, diags, "workload.go", regexp.MustCompile(`range over a map`))
}

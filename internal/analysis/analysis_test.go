package analysis

import (
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseSuppressions(t *testing.T) {
	src := `package p

//lint:maporder keys are a set, order irrelevant
var a int

var b int //lint:simtime,detrand host tool

//lint:obsguard
var c int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	supps := parseSuppressions(fset, f)
	if len(supps) != 3 {
		t.Fatalf("got %d suppressions, want 3", len(supps))
	}
	if got := supps[0]; got.Line != 3 || got.Keys[0] != "maporder" || got.Reason != "keys are a set, order irrelevant" {
		t.Errorf("first suppression parsed wrong: %+v", got)
	}
	if got := supps[1]; len(got.Keys) != 2 || got.Keys[0] != "simtime" || got.Keys[1] != "detrand" {
		t.Errorf("multi-key suppression parsed wrong: %+v", got)
	}
	if got := supps[2]; got.Reason != "" {
		t.Errorf("reasonless suppression parsed wrong: %+v", got)
	}
}

func TestSuppressionMatching(t *testing.T) {
	pkg := &Package{Suppressions: []*Suppression{
		{Keys: []string{"wallclock"}, Reason: "documented", Line: 10, File: "f.go"},
		{Keys: []string{"maporder"}, Reason: "", Line: 20, File: "f.go"},
	}}
	// Alias: //lint:wallclock suppresses the simtime analyzer, on its
	// own line and the line below.
	for _, line := range []int{10, 11} {
		if s := pkg.suppressionAt("simtime", token.Position{Filename: "f.go", Line: line}); s == nil || s.Reason == "" {
			t.Errorf("line %d: wallclock alias did not suppress simtime", line)
		}
	}
	if s := pkg.suppressionAt("simtime", token.Position{Filename: "f.go", Line: 12}); s != nil {
		t.Error("suppression leaked two lines below the comment")
	}
	if s := pkg.suppressionAt("simtime", token.Position{Filename: "g.go", Line: 10}); s != nil {
		t.Error("suppression leaked across files")
	}
	// A reasonless comment is found but inert (Report appends a hint).
	if s := pkg.suppressionAt("maporder", token.Position{Filename: "f.go", Line: 21}); s == nil || s.Reason != "" {
		t.Error("reasonless suppression should be returned with empty reason")
	}
}

func TestUnusedDirectives(t *testing.T) {
	pkgs := []*Package{
		{Suppressions: []*Suppression{
			{Keys: []string{"simtime"}, Reason: "documented", Line: 10, File: "b.go", Used: true},
			{Keys: []string{"maporder"}, Reason: "stale claim", Line: 30, File: "b.go"},
			{Keys: []string{"obsguard"}, Reason: "", Line: 5, File: "a.go"},
		}},
		// A second load unit sharing a file must not duplicate reports.
		{Suppressions: []*Suppression{
			{Keys: []string{"maporder"}, Reason: "stale claim", Line: 30, File: "b.go"},
		}},
	}
	got := UnusedDirectives(pkgs)
	if len(got) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %+v", len(got), got)
	}
	// Sorted by file then line; used suppressions never reported.
	if got[0].Pos.Filename != "a.go" || got[0].Pos.Line != 5 || !strings.Contains(got[0].Message, "inert") {
		t.Errorf("reasonless directive reported wrong: %+v", got[0])
	}
	if got[1].Pos.Filename != "b.go" || got[1].Pos.Line != 30 || !strings.Contains(got[1].Message, "stale") {
		t.Errorf("stale directive reported wrong: %+v", got[1])
	}
	for _, d := range got {
		if d.Analyzer != UnusedDirectiveAnalyzer {
			t.Errorf("diagnostic analyzer = %q, want %q", d.Analyzer, UnusedDirectiveAnalyzer)
		}
	}
}

func TestScopeMatching(t *testing.T) {
	cases := []struct {
		path          string
		deterministic bool
		replay        bool
	}{
		{"repro/internal/sim", true, true},
		{"repro/internal/sched/schedtest", true, true},
		{"repro/internal/cfs/lintfixture", true, true},
		{"repro/internal/experiments", false, true},
		{"repro/cmd/nestsim", false, true},
		{"repro/internal/analysis", false, false},
		{"repro/internal/simother", false, false}, // prefix must respect path boundaries
	}
	for _, c := range cases {
		if got := inDeterministicScope(c.path); got != c.deterministic {
			t.Errorf("inDeterministicScope(%q) = %v, want %v", c.path, got, c.deterministic)
		}
		if got := inReplayScope(c.path); got != c.replay {
			t.Errorf("inReplayScope(%q) = %v, want %v", c.path, got, c.replay)
		}
	}
}

// TestEveryPackageClassified requires every package in the module to be
// in a scope list or exempt here for a stated reason, so a new package
// cannot escape the contracts silently.
func TestEveryPackageClassified(t *testing.T) {
	exempt := []string{
		"repro/examples",           // runnable demos; no output of theirs is pinned
		"repro/internal/analysis",  // the linter and its fixture harness
		"repro/internal/profiling", // host-side pprof capture for the CLIs
	}
	cmd := exec.Command("go", "list", "./...")
	cmd.Dir = filepath.Join("..", "..")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	for _, path := range strings.Fields(string(out)) {
		// The module root holds doc.go and repo-level tests only.
		if path == "repro" || inReplayScope(path) || hasPathPrefix(path, exempt) {
			continue
		}
		t.Errorf("package %s is in no scope list: add it to deterministicPkgs or outputPkgs, or exempt it with a reason", path)
	}
}

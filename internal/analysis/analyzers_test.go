package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/antest"
)

// Each fixture is type-checked under a pretend import path inside the
// scope the analyzer patrols, so prefix-based scoping applies to it
// exactly as it would to the real package.

func TestSimtime(t *testing.T) {
	antest.Run(t, analysis.Simtime, "simtime", "repro/internal/cfs/lintfixture")
}

func TestDetrandInScope(t *testing.T) {
	antest.Run(t, analysis.Detrand, "detrand", "repro/internal/workload/lintfixture")
}

func TestDetrandToolScope(t *testing.T) {
	// Outside the replay scope the import is legal and seeded
	// generators pass; only the global source is flagged.
	antest.Run(t, analysis.Detrand, "detrandtool", "repro/tools/lintfixture")
}

func TestMaporder(t *testing.T) {
	antest.Run(t, analysis.Maporder, "maporder", "repro/internal/metrics/lintfixture")
}

func TestMaporderOutOfScope(t *testing.T) {
	// The same fixture under a path outside the replay scope must be
	// silent: maporder only patrols sim/encoding packages.
	pkg := antest.Load(t, "maporder", "repro/tools/lintfixture")
	diags := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{analysis.Maporder})
	for _, d := range diags {
		t.Errorf("out-of-scope fixture still flagged: %s: %s", d.Pos, d.Message)
	}
}

func TestObsguard(t *testing.T) {
	antest.Run(t, analysis.Obsguard, "obsguard", "repro/internal/cpu/lintfixture")
}

func TestPostdiscipline(t *testing.T) {
	antest.Run(t, analysis.Postdiscipline, "postdiscipline", "repro/internal/smove/lintfixture")
}

func TestPoollife(t *testing.T) {
	antest.Run(t, analysis.Poollife, "poollife", "repro/internal/sim/lintfixture")
}

func TestEngineown(t *testing.T) {
	antest.Run(t, analysis.Engineown, "engineown", "repro/internal/sim/lintfixture")
}

package analysis

import "strings"

// The contracts don't apply uniformly: the deterministic core must
// never see a wall clock or an unseeded RNG, while the encoding layer
// additionally promises byte-identical output across serial, parallel
// and resumed runs. Scope membership is by import-path prefix so that
// subpackages (internal/sched/schedtest) and the fixture packages the
// analyzer tests type-check under pretend paths (for example
// repro/internal/cfs/lintfixture) inherit their parent's scope.

// deterministicPkgs hold simulation state or make scheduling
// decisions; every run must replay byte-identically from a seed.
var deterministicPkgs = []string{
	"repro/internal/sim",
	"repro/internal/cfs",
	"repro/internal/core",
	"repro/internal/cpu",
	"repro/internal/sched",
	"repro/internal/smove",
	"repro/internal/pelt",
	"repro/internal/freqmodel",
	"repro/internal/governor",
	"repro/internal/fault",
	"repro/internal/invariant",
	"repro/internal/workload",
	"repro/internal/naive",
	"repro/internal/machine",
	"repro/internal/proc",
	// ordered is the one place a map is ranged: its sole loop carries
	// the repo's only //lint:maporder directive, which the scope keeps
	// honest under -unused-directives.
	"repro/internal/ordered",
}

// outputPkgs produce encoded artifacts (result JSON, metrics, plots,
// journals, event streams) whose bytes are compared across runs; they
// share the wall-clock and iteration-order contracts but may use
// goroutines (the experiment pool) and emit without hot-path guards.
var outputPkgs = []string{
	"repro/internal/experiments",
	"repro/internal/metrics",
	"repro/internal/obs",
	"repro/internal/checkpoint",
	"repro/internal/svgplot",
	"repro/internal/textplot",
	"repro/nestsim",
	// The CLIs print result tables and write figure files; their
	// output is diffed across runs just like the library artifacts.
	"repro/cmd",
}

func hasPathPrefix(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// inDeterministicScope reports whether the package holds simulation
// state (clock, RNG, iteration-order, goroutine and obs-guard
// contracts all apply).
func inDeterministicScope(path string) bool {
	return hasPathPrefix(path, deterministicPkgs)
}

// inOutputScope reports whether the package encodes run artifacts
// (clock, RNG and iteration-order contracts apply).
func inOutputScope(path string) bool {
	return hasPathPrefix(path, outputPkgs)
}

// inReplayScope is the union: anywhere byte-identical replay can be
// corrupted.
func inReplayScope(path string) bool {
	return inDeterministicScope(path) || inOutputScope(path)
}

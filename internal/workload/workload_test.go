package workload

import (
	"strings"
	"testing"

	"repro/internal/cfs"
	"repro/internal/cpu"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

func runOn(t *testing.T, name string, spec *machine.Spec, scale float64) *metrics.Result {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatalf("ByName(%q): %v", name, err)
	}
	m := cpu.New(cpu.Config{Spec: spec, Gov: governor.Schedutil{}, Policy: cfs.Default(), Seed: 7})
	w.Install(m, scale)
	res := m.Run(0)
	res.Workload = name
	return res
}

func TestRegistryComplete(t *testing.T) {
	// The suites must carry exactly the paper's benchmark counts.
	counts := map[string]int{}
	for _, n := range Names() {
		w, _ := ByName(n)
		counts[w.Suite]++
	}
	want := map[string]int{
		"configure":   11,
		"dacapo":      21,
		"nas":         9,
		"phoronix":    27,
		"phoronix-bg": backgroundCount,
		"micro":       13,
		"server":      9,
		"multi":       1,
		"overload":    13,
		"fanout":      9,
	}
	for suite, n := range want {
		if counts[suite] != n {
			t.Errorf("suite %q has %d workloads, want %d", suite, counts[suite], n)
		}
	}
	if len(PhoronixAll()) != 222 {
		t.Errorf("Phoronix population = %d, want 222 (paper)", len(PhoronixAll()))
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope/nothing"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSuiteOrdering(t *testing.T) {
	ws := Suite("configure")
	if len(ws) != 11 {
		t.Fatalf("Suite(configure) = %d entries", len(ws))
	}
	for _, w := range ws {
		if !strings.HasPrefix(w.Name, "configure/") {
			t.Fatalf("stray workload %q in configure suite", w.Name)
		}
	}
}

func TestEveryWorkloadRunsToCompletion(t *testing.T) {
	// Every registered (non-background) workload must install and finish
	// without deadlock at a tiny scale on a small machine.
	spec := machine.IntelXeon6130(2)
	for _, n := range Names() {
		w, _ := ByName(n)
		if w.Suite == "phoronix-bg" {
			continue // covered by sampling below
		}
		scale := 0.005
		if w.Suite == "micro" {
			scale = 0.002
		}
		res := runOn(t, n, spec, scale)
		if res.Custom["truncated"] != 0 {
			t.Errorf("%s: did not complete (deadlock or runaway)", n)
		}
		if res.Runtime <= 0 {
			t.Errorf("%s: zero runtime", n)
		}
	}
}

func TestBackgroundPopulationSample(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	for i := 0; i < backgroundCount; i += 23 {
		n := PhoronixAll()[27+i]
		res := runOn(t, n, spec, 0.004)
		if res.Custom["truncated"] != 0 {
			t.Errorf("%s truncated", n)
		}
	}
}

func TestScaleShortensRuns(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	small := runOn(t, "configure/gcc", spec, 0.02)
	large := runOn(t, "configure/gcc", spec, 0.08)
	if large.Runtime <= small.Runtime {
		t.Fatalf("scale 0.08 (%v) not longer than 0.02 (%v)", large.Runtime, small.Runtime)
	}
}

func TestPaperSecondsRoughlyMatchedAtScale(t *testing.T) {
	// At scale s the modelled runtime should be within 3x of
	// PaperSeconds*s for the configure suite (loose: the model is about
	// shape, not absolute time, but should not be wildly off).
	spec := machine.IntelXeon5218()
	for _, n := range []string{"configure/erlang", "configure/llvm_ninja", "configure/gcc"} {
		w, _ := ByName(n)
		res := runOn(t, n, spec, 0.04)
		want := w.PaperSeconds * 0.04
		got := res.Runtime.Seconds()
		if got < want/3 || got > want*3 {
			t.Errorf("%s: runtime %.3fs, paper-scaled %.3fs (off more than 3x)", n, got, want)
		}
	}
}

func TestConfigureNamesMatchFigureOrder(t *testing.T) {
	names := ConfigureNames()
	if names[0] != "erlang" || names[len(names)-1] != "php" {
		t.Fatalf("figure order broken: %v", names)
	}
}

func TestPhoronixDescriptions(t *testing.T) {
	for _, n := range PhoronixNamed() {
		if PhoronixDescription(n) == "" {
			t.Errorf("test %q has no Table 5 description", n)
		}
	}
	if PhoronixDescription("nope") != "" {
		t.Error("unknown test has a description")
	}
}

func TestMultiAppRecordsPerAppTimes(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	res := runOn(t, "multi/zstd+libgav1", spec, 0.01)
	if res.Custom["zstd_s"] <= 0 || res.Custom["libgav1_s"] <= 0 {
		t.Fatalf("per-app completion times missing: %v", res.Custom)
	}
}

func TestHackbenchSchedulerBound(t *testing.T) {
	// Most of hackbench's events must be wakeups, not timer sleeps: the
	// workload exists to stress placement.
	spec := machine.IntelXeon6130(2)
	res := runOn(t, "micro/hackbench", spec, 0.002)
	if res.Counters.Wakeups < res.Counters.Forks {
		t.Fatalf("hackbench not wakeup-dominated: %d wakeups, %d forks",
			res.Counters.Wakeups, res.Counters.Forks)
	}
}

func TestNASUsesAllCores(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	w, _ := ByName("nas/ep.C")
	tr := obs.NewTrace(0, 2*sim.Second)
	m := cpu.New(cpu.Config{Spec: spec, Gov: governor.Performance{}, Policy: cfs.Default(), Seed: 3,
		Obs: obs.New(tr), SampleEvery: sim.Tick})
	w.Install(m, 0.02)
	m.Run(0)
	if used := len(tr.CoresUsed()); used < spec.Topo.NumCores()*9/10 {
		t.Fatalf("NAS used only %d of %d cores", used, spec.Topo.NumCores())
	}
}

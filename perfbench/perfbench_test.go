package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cfs"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/invariant"
	"repro/internal/obs"
)

// tinyScale shrinks every cell so a whole workload runs in well under a
// second.
const tinyScale = 0.02

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, nameRE)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the repository root to the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var cfg struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	declared := func(ms []jsonMetric) []metricDef {
		var out []metricDef
		for _, m := range ms {
			out = append(out, metricDef{m.Name, m.Unit})
		}
		return out
	}
	if got := declared(cfg.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", got, endToEnd)
	}
	if got := declared(cfg.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", got, perLayer)
	}
	for _, m := range cfg.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// runTiny runs one workload at tiny scale and returns its result line.
func runTiny(t *testing.T, workload string, trace int) summary {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: 7, seconds: 0, trace: trace, scale: tinyScale}
	if err := run(o, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return s
}

func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads {
		s := runTiny(t, w.name, 0)
		if s.Attempted == 0 || s.Failed != 0 || !s.Correct {
			t.Errorf("%s: %d of %d cells failed", w.name, s.Failed, s.Attempted)
		}
		for _, d := range endToEnd {
			m, ok := s.Metrics[d.name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", w.name, d.name)
			case m.Unit != d.unit:
				t.Errorf("%s: metric %s unit %q, want %q", w.name, d.name, m.Unit, d.unit)
			case !(m.Value > 0):
				t.Errorf("%s: metric %s = %g, want > 0", w.name, d.name, m.Value)
			}
		}
		if len(s.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(s.Metrics), len(endToEnd))
		}
	}
}

func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	s := runTiny(t, "grid-observed", 1)
	for _, d := range perLayer {
		if _, ok := s.Metrics[d.name]; !ok {
			t.Errorf("metric %s missing", d.name)
		}
	}
	if s.Failed != 0 {
		t.Errorf("%d of %d traced cells failed", s.Failed, s.Attempted)
	}
}

// nestSizes is the view cpu.New looks for to emit nest gauges.
type nestSizes interface {
	PrimarySize() int
	ReserveSize() int
}

func TestPolicyDecoratorForwardsNestViews(t *testing.T) {
	inner := core.Default()
	p := tracePolicy(inner, &policyStats{})
	ns, ok := p.(nestSizes)
	if !ok {
		t.Fatal("decorated nest policy hides PrimarySize/ReserveSize")
	}
	nv, ok := p.(invariant.NestView)
	if !ok {
		t.Fatal("decorated nest policy hides invariant.NestView")
	}
	if ns.PrimarySize() != inner.PrimarySize() || ns.ReserveSize() != inner.ReserveSize() {
		t.Error("decorated nest sizes differ from the policy's")
	}
	if nv.InPrimary(0) != inner.InPrimary(0) || nv.InReserve(0) != inner.InReserve(0) {
		t.Error("decorated nest masks differ from the policy's")
	}
	cp := tracePolicy(cfs.Default(), &policyStats{})
	if _, ok := cp.(nestSizes); ok {
		t.Error("decorated cfs policy claims nest sizes")
	}
	if _, ok := cp.(invariant.NestView); ok {
		t.Error("decorated cfs policy claims a nest view")
	}

	// Through a whole run: the nest gauges a decorated policy produces
	// are the undecorated policy's.
	rs := experiments.RunSpec{Machine: "5218", Scheduler: "nest", Governor: "schedutil",
		Workload: "configure/llvm_ninja", Scale: tinyScale, Seed: 3}
	gauges := func(in instruments) []obs.NestGauge {
		var buf obs.SeriesBuffer
		in.hub, in.sample = obs.New(&buf), gaugeEvery
		if c := runCell(rs, in); c.err != nil {
			t.Fatal(c.err)
		}
		return buf.Nests
	}
	want := gauges(instruments{})
	got := gauges(newTracer().instruments(rs))
	if len(want) == 0 {
		t.Fatal("undecorated nest run emitted no nest gauges")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decorated run emitted %d nest gauges, undecorated %d, or their values differ", len(got), len(want))
	}
}

// TestTracedCellMatchesUntracedTwin checks at tiny scale that every
// cell of every workload encodes to the same bytes with the policy and
// governor decorators on as off.
func TestTracedCellMatchesUntracedTwin(t *testing.T) {
	tr := newTracer()
	for _, w := range workloads {
		specs, _ := w.specs(7, tinyScale)
		for _, rs := range specs {
			plain, traced := runCell(rs, instruments{}), runCell(rs, tr.instruments(rs))
			if plain.err != nil || traced.err != nil {
				t.Fatalf("%s: %v / %v", rs, plain.err, traced.err)
			}
			a, err := experiments.EncodeResult(plain.res)
			if err != nil {
				t.Fatal(err)
			}
			b, err := experiments.EncodeResult(traced.res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s: traced result differs from its untraced twin", rs)
			}
		}
	}
	var selects int64
	for _, ps := range tr.policies {
		selects += ps.selects.n
	}
	if selects == 0 || tr.gov.n == 0 {
		t.Errorf("decorators timed %d selects and %d governor requests, want both > 0", selects, tr.gov.n)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/pelt.(*Signal).decayTo":          "pelt",
		"repro/internal/core.(*Policy).SelectCoreWakeup": "core",
		"repro/internal/sim.(*Engine).Run":               "sim",
		"repro/internal/workload/fanout.x":               "workload",
		"repro/internal/textplot.Render":                 "other",
		"main.(*policyTracer).SelectCoreFork":            "perfbench",
		"math.Exp":                                       "",
		"runtime.mallocgc":                               "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestRejectsOversubscribedGOMAXPROCS(t *testing.T) {
	n := runtime.NumCPU() + 1
	t.Setenv("GOMAXPROCS", strconv.Itoa(n))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	if _, err := stampEnv(1); err == nil {
		t.Errorf("GOMAXPROCS=%d on %d CPUs accepted", n, n-1)
	}
}

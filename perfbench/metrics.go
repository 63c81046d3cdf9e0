package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root declares the same lists (the self-tests hold them
// equal).
type metricDef struct{ name, unit string }

// endToEnd are the host-side costs a user of the simulator sees,
// measured with tracing off.
var endToEnd = []metricDef{
	{"ns_per_sim_s", "ns/sim_s"},
	{"cells_per_s", "1/s"},
	{"setup_s", "s"},
	{"allocs_per_sim_s", "1/sim_s"},
	{"alloc_mb_per_sim_s", "MB/sim_s"},
	{"peak_heap_mb", "MB"},
}

// cpuShareLayers are the packages the traced run's CPU profile is
// bucketed into. "perfbench" is this benchmark's own frames (the
// tracing decorators), "other" the repository's remaining packages, and
// "go" samples with no repository frame (runtime, GC, standard library
// called from outside the repository).
var cpuShareLayers = []string{
	"sim", "cpu", "cfs", "core", "smove", "pelt", "freqmodel", "governor",
	"workload", "metrics", "obs", "checkpoint", "experiments",
	"other", "perfbench", "go",
}

// policyLayers are the placement policies the sched.Policy decorator
// times, named after their packages (nest lives in internal/core).
var policyLayers = []string{"cfs", "core", "smove"}

// perLayer are the traced run's metrics, one group per layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.pending_peak", "count"},
		{"sim.replay_ns_per_event", "ns"},
	}
	for _, p := range policyLayers {
		defs = append(defs,
			metricDef{p + ".selects", "count"},
			metricDef{p + ".select_ns", "ns"},
			metricDef{p + ".select_share", "ratio"},
			metricDef{p + ".hook_ns", "ns"})
	}
	defs = append(defs,
		metricDef{"cpu.cores_examined_per_select", "count"},
		metricDef{"cpu.ctx_switches", "count"},
		metricDef{"cpu.migrations", "count"},
		metricDef{"cpu.spin_ticks", "count"},
		metricDef{"pelt.replay_ns_per_update", "ns"},
		metricDef{"freqmodel.replay_ns_per_tick", "ns"},
		metricDef{"governor.requests", "count"},
		metricDef{"governor.request_ns", "ns"},
		metricDef{"workload.attempt_amp", "ratio"},
		metricDef{"workload.goodput_ratio", "ratio"},
		metricDef{"workload.subtasks", "count"},
		metricDef{"workload.hedge_win_ratio", "ratio"},
		metricDef{"workload.cancel_ratio", "ratio"},
		metricDef{"obs.events", "count"},
		metricDef{"obs.record_ns", "ns"},
		metricDef{"obs.jsonl_bytes_per_sim_s", "B/sim_s"},
		metricDef{"checkpoint.append_ns", "ns"},
		metricDef{"checkpoint.load_ns_per_cell", "ns"},
		metricDef{"checkpoint.journal_bytes", "B"},
		metricDef{"experiments.worker_busy_ratio", "ratio"},
		metricDef{"experiments.encode_ns", "ns"},
		metricDef{"go.gc_cpu_fraction", "ratio"},
		metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"trace_overhead_pct", "%"})
	for _, l := range cpuShareLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "ratio"})
	}
	return defs
}()

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowQuartile returns the lower quartile of xs (0 when empty). Other
// tenants of a shared host only ever add time to a timing, so its lower
// quartile over passes is far steadier from run to run than its median.
func lowQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/4]
}

// geomean returns the geometric mean of the positive values in xs, so
// every cell weighs equally whatever its cost per simulated second.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ratio is a/b, or 0 when b is 0: a metric of a layer the workload does
// not exercise reads 0, never NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

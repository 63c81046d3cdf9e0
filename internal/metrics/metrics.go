// Package metrics defines the measurements the paper's evaluation
// reports: run time, CPU energy, the underload metric of §5.2, busy-core
// frequency distributions (Figures 6 and 11), scheduler-event counters
// and wakeup-latency percentiles (schbench).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Hist is a time-weighted histogram of busy-core frequency. Bucket i
// covers (Edges[i-1], Edges[i]] with bucket 0 covering (0, Edges[0]];
// values above the last edge land in the last bucket.
type Hist struct {
	Edges  []machine.FreqMHz
	Weight []float64 // nanoseconds of busy core time per bucket
}

// NewHist returns a histogram over the given bucket edges.
func NewHist(edges []machine.FreqMHz) *Hist {
	return &Hist{Edges: edges, Weight: make([]float64, len(edges))}
}

// Add accumulates dt nanoseconds of busy time at frequency f.
func (h *Hist) Add(f machine.FreqMHz, dt sim.Duration) {
	i := sort.Search(len(h.Edges), func(i int) bool { return f <= h.Edges[i] })
	if i >= len(h.Edges) {
		i = len(h.Edges) - 1
	}
	h.Weight[i] += float64(dt)
}

// Total returns the histogram's total weight.
func (h *Hist) Total() float64 {
	var t float64
	for _, w := range h.Weight {
		t += w
	}
	return t
}

// Share returns bucket i's fraction of the total (0 if empty).
func (h *Hist) Share(i int) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return h.Weight[i] / t
}

// Merge adds other's weights into h (edges must match).
func (h *Hist) Merge(other *Hist) {
	for i := range h.Weight {
		h.Weight[i] += other.Weight[i]
	}
}

// BucketLabel renders bucket i as the paper does, e.g. "(1.6,2.3] GHz".
func (h *Hist) BucketLabel(i int) string {
	lo := machine.FreqMHz(0)
	if i > 0 {
		lo = h.Edges[i-1]
	}
	return fmt.Sprintf("(%.1f,%.1f] GHz", lo.GHz(), h.Edges[i].GHz())
}

// EdgesFor returns the frequency bucket edges the paper's figures use for
// each machine, falling back to a generic derivation (min, a low split,
// nominal, then the distinct turbo levels).
func EdgesFor(spec *machine.Spec) []machine.FreqMHz {
	switch {
	case spec.Arch == "Skylake":
		return []machine.FreqMHz{1000, 1600, 2100, 2800, 3100, 3400, 3700}
	case spec.Arch == "Cascade Lake" && spec.Nominal == 2300:
		return []machine.FreqMHz{1000, 1600, 2300, 2800, 3100, 3600, 3900}
	case spec.Arch == "Broadwell":
		return []machine.FreqMHz{1200, 1700, 2100, 2600, 3000}
	}
	edges := []machine.FreqMHz{spec.Min, spec.Min + (spec.Nominal-spec.Min)/2, spec.Nominal}
	seen := map[machine.FreqMHz]bool{}
	for _, e := range edges {
		seen[e] = true
	}
	for _, f := range spec.Turbo {
		if !seen[f] {
			edges = append(edges, f)
			seen[f] = true
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	return edges
}

// Counters tallies scheduler events over a run.
type Counters struct {
	Forks          int64
	Wakeups        int64
	CtxSwitches    int64
	ColdSwitches   int64 // context switches with an instruction-cache miss penalty
	Migrations     int64 // schedule-ins on a core different from the last
	Preemptions    int64
	Collisions     int64 // placements onto a core that already had an in-flight placement
	CoresExamined  int64 // total cores inspected during placement
	LoadBalances   int64 // idle-balance task pulls
	SpinTicksTotal int64 // ticks spent idle-spinning across all cores
}

// RunStats carries the observability aggregates of one run: a snapshot
// of the internal/obs counter registry (decision-path tallies, nest
// expand/compact counts, migrations, ...) and the number of events that
// flowed through the hub. Nil when the run had no observability hub.
type RunStats struct {
	// Counters maps dotted counter names (see docs/OBSERVABILITY.md) to
	// their end-of-run values.
	Counters map[string]int64
	// Events is the total number of events recorded.
	Events int64
}

// Counter returns the named counter's value (0 when absent or nil).
func (s *RunStats) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// Result is everything measured in one run of one workload under one
// scheduler/governor pair.
type Result struct {
	MachineName string
	Scheduler   string
	Governor    string
	Workload    string
	Seed        uint64

	// Runtime is the wall time from start to the last root task's exit.
	Runtime sim.Time
	// EnergyJ is whole-machine CPU package energy over the run.
	EnergyJ float64
	// Underload is the total of §5.2's underload metric over all 4 ms
	// intervals; UnderloadPerSec normalises by run time; UnderloadAvg is
	// the mean per-interval value, the quantity Figure 4 plots.
	Underload       float64
	UnderloadPerSec float64
	UnderloadAvg    float64
	// OverloadPerSec counts queued-while-idle-elsewhere task-intervals
	// per second (Nest aims to keep this at zero while fixing underload).
	OverloadPerSec float64
	// FreqHist is the busy-core frequency distribution.
	FreqHist *Hist
	// Counters are scheduler event tallies.
	Counters Counters
	// WakeLatency is the distribution of wakeup-to-run delays, the
	// schbench metric.
	WakeLatency LatHist
	// Stats holds observability aggregates (nil without an obs hub).
	Stats *RunStats
	// Custom carries workload-specific metrics (throughput, ops/s).
	Custom map[string]float64
}

// SetCustom records a workload-specific metric.
func (r *Result) SetCustom(name string, v float64) {
	if r.Custom == nil {
		r.Custom = make(map[string]float64)
	}
	r.Custom[name] = v
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stddev returns the sample standard deviation of xs.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		s += float64((x - m) * (x - m))
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Speedup returns the paper's normalised improvement: baseline/value − 1
// for lower-is-better metrics (time, energy). 0 means identical, positive
// means the value improved on the baseline.
func Speedup(baseline, value float64) float64 {
	if value == 0 {
		return 0
	}
	return baseline/value - 1
}

// SpeedupHigherBetter is the analogue for higher-is-better metrics
// (throughput): value/baseline − 1.
func SpeedupHigherBetter(baseline, value float64) float64 {
	if baseline == 0 {
		return 0
	}
	return value/baseline - 1
}

// Runtimes extracts the runtimes in seconds from a set of results.
func Runtimes(rs []*Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Runtime.Seconds()
	}
	return out
}

// Energies extracts the energies in joules from a set of results.
func Energies(rs []*Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.EnergyJ
	}
	return out
}

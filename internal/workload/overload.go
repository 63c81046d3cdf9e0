package workload

import (
	"fmt"

	"repro/internal/sim"
)

// overloadMix is the reference class mix: a web tier (most traffic,
// tightest priority), a key-value tier, and batchy scripts that
// graceful degradation sheds first. Weighted mean service time: 900us.
var overloadMix = []overloadClass{
	{name: "web", prio: 0, share: 0.6, service: 800 * sim.Microsecond, cv: 0.5, slo: 4 * msec},
	{name: "kv", prio: 1, share: 0.3, service: 400 * sim.Microsecond, cv: 0.4, slo: 2 * msec},
	{name: "script", prio: 2, share: 0.1, service: 3 * msec, cv: 0.6, slo: 12 * msec},
}

// overloadPool is the pool every overload preset and replayed trace
// shares: an open-loop pool with per-attempt deadlines and client
// retries with exponential backoff + jitter, serving mix.
func overloadPool(mix []overloadClass) openLoopProfile {
	return openLoopProfile{
		handlers:   64,
		requests:   60000,
		queueDepth: 4096,
		timeout:    10 * msec,
		retries:    2,
		backoff:    1 * msec,
		mix:        mix,
		admission:  "none",
		endToEnd:   true,
	}
}

// capacityRate returns the pool's nominal throughput in requests per
// second: handlers / weighted mean service time.
func (p openLoopProfile) capacityRate() float64 {
	var mean float64
	for _, cl := range p.mix {
		mean += float64(cl.share * float64(cl.service))
	}
	return float64(p.handlers) / mean * float64(sim.Second)
}

// referenceOverload is the preset every overload/mix-* workload shares;
// only the arrival factor and admission policy vary across the grid.
// Arrivals are MMPP at factor × capacity: bursts at 2.5× the mean rate
// for an exponential ~4ms, then idle at 0.5× for ~12ms.
func referenceOverload(factor float64, policy string) openLoopProfile {
	p := overloadPool(overloadMix)
	offered := factor * p.capacityRate()
	p.arrival = ArrivalSpec{Kind: ArrMMPP, Hi: 2.5 * offered, Lo: 0.5 * offered, On: 4 * msec, Off: 12 * msec}
	p.admission = p.admissionSpec(policy)
	return p
}

// admissionSpec maps the short policy names to reference tunings, all
// expressed relative to the pool size and capacity so they scale with
// the preset rather than hard-coding absolute queue depths.
func (p openLoopProfile) admissionSpec(policy string) string {
	switch policy {
	case "cap":
		return fmt.Sprintf("cap:%d", 4*p.handlers)
	case "token":
		return fmt.Sprintf("token:rate=%s,burst=%d", fmtRate(p.capacityRate()), 2*p.handlers)
	case "codel":
		return "codel:target=2ms,interval=8ms"
	}
	return policy // "none", or already a full spec
}

// OverloadFactors and OverloadPolicies enumerate the registered
// overload grid axes (arrival factor × admission policy); the
// experiment sweeps them against schedulers.
var (
	OverloadFactors  = []float64{1.0, 1.5, 2.0}
	OverloadPolicies = []string{"none", "cap", "token", "codel"}
)

// OverloadMixName returns the registered workload name for one grid
// cell, e.g. "overload/mix-1.5-codel".
func OverloadMixName(factor float64, policy string) string {
	return fmt.Sprintf("overload/mix-%g-%s", factor, policy)
}

func init() {
	for _, f := range OverloadFactors {
		for _, pol := range OverloadPolicies {
			register(&Workload{
				Name:         OverloadMixName(f, pol),
				Suite:        "overload",
				PaperSeconds: 1,
				Install:      referenceOverload(f, pol).install,
			})
		}
	}
	// A diurnal single-class variant: the §5 idle-then-burst regime as a
	// day curve, no admission control, deadlines + retries only.
	diurnal := overloadPool([]overloadClass{{name: "web", prio: 0, share: 1, service: 900 * sim.Microsecond, cv: 0.5, slo: 4 * msec}})
	capacity := diurnal.capacityRate()
	diurnal.arrival = ArrivalSpec{Kind: ArrDiurnal, Peak: 1.8 * capacity, Trough: 0.3 * capacity, Period: 100 * msec}
	register(&Workload{
		Name:         "overload/diurnal",
		Suite:        "overload",
		PaperSeconds: 1,
		Install:      diurnal.install,
	})
}

// RegisterTraceWorkload registers an open-loop serving workload that
// replays the given arrival trace through the overload reference pool
// under the named admission policy ("none"/"cap"/"token"/"codel" or a
// full spec). Trace classes ("web"/"kv"/"script") select the reference
// mix's service distributions; unlabeled entries draw from the mix.
// The base arrival count is the trace length (scale still caps it).
func RegisterTraceWorkload(name string, entries []TraceEntry, policy string) error {
	p := overloadPool(overloadMix)
	p.arrival = ArrivalSpec{Kind: ArrTrace, Trace: entries}
	p.admission = p.admissionSpec(policy)
	return registerOpenLoop(name, "trace", p)
}

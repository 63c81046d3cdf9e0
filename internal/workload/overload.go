package workload

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// overloadClass parameterises one request class of the overload preset.
type overloadClass struct {
	name    string
	prio    int // 0 = shed last
	share   float64
	service sim.Duration
	cv      float64
	slo     sim.Duration
}

// overloadMix is the reference class mix: a web tier (most traffic,
// tightest priority), a key-value tier, and batchy scripts that
// graceful degradation sheds first. Weighted mean service time: 900us.
var overloadMix = []overloadClass{
	{name: "web", prio: 0, share: 0.6, service: 800 * sim.Microsecond, cv: 0.5, slo: 4 * msec},
	{name: "kv", prio: 1, share: 0.3, service: 400 * sim.Microsecond, cv: 0.4, slo: 2 * msec},
	{name: "script", prio: 2, share: 0.1, service: 3 * msec, cv: 0.6, slo: 12 * msec},
}

// overloadProfile is the full overload-control serving shape: an
// open-loop multi-class pool with per-attempt deadlines, client retries
// with exponential backoff + jitter, and a pluggable admission policy.
type overloadProfile struct {
	handlers   int
	requests   int // base arrivals at paper scale
	queueDepth int
	factor     float64 // offered load as a multiple of nominal capacity
	policy     string  // none / cap / token / codel (reference tunings)
	mmpp       bool    // bursty MMPP arrivals instead of plain Poisson
	timeout    sim.Duration
	retries    int
	backoff    sim.Duration
	classes    []overloadClass
}

// capacityRate returns the pool's nominal throughput in requests per
// second: handlers / weighted mean service time.
func (p overloadProfile) capacityRate() float64 {
	var mean float64
	for _, cl := range p.classes {
		mean += cl.share * float64(cl.service)
	}
	return float64(p.handlers) / mean * float64(sim.Second)
}

// arrivalSpec derives the offered-load process at factor × capacity.
// MMPP bursts run at 2.5× the mean rate for an exponential ~4ms, then
// idle at 0.5× for ~12ms — the mean stays factor × capacity.
func (p overloadProfile) arrivalSpec() *ArrivalSpec {
	offered := p.factor * p.capacityRate()
	if p.mmpp {
		return &ArrivalSpec{Kind: ArrMMPP, Hi: 2.5 * offered, Lo: 0.5 * offered, On: 4 * msec, Off: 12 * msec}
	}
	return &ArrivalSpec{Kind: ArrPoisson, Rate: offered}
}

// admissionSpec maps the short policy names to reference tunings, all
// expressed relative to the pool size and capacity so they scale with
// the preset rather than hard-coding absolute queue depths.
func (p overloadProfile) admissionSpec() string {
	switch p.policy {
	case "none":
		return "none"
	case "cap":
		return fmt.Sprintf("cap:%d", 4*p.handlers)
	case "token":
		return fmt.Sprintf("token:rate=%s,burst=%d", fmtRate(p.capacityRate()), 2*p.handlers)
	case "codel":
		return "codel:target=2ms,interval=8ms"
	}
	return p.policy // already a full spec
}

func (p overloadProfile) install(m *cpu.Machine, scale float64) {
	reqs := scaleCount(p.requests, scale, 50)
	src, err := p.arrivalSpec().Source()
	if err != nil {
		panic(fmt.Sprintf("workload: overload arrival spec: %v", err))
	}
	adm, err := ParseAdmission(p.admissionSpec())
	if err != nil {
		panic(fmt.Sprintf("workload: overload admission spec: %v", err))
	}
	classes := make([]reqClass, len(p.classes))
	for i, cl := range p.classes {
		classes[i] = reqClass{
			name:  cl.name,
			prio:  cl.prio,
			share: cl.share,
			svc:   jitterCycles(m, cl.service, cl.cv),
			slo:   cl.slo,
			acc:   &sloAccum{class: cl.name, slo: cl.slo, quiet: len(p.classes) > 1},
		}
	}
	installOpenLoopPool(m, openLoopCfg{
		handlers:   p.handlers,
		total:      reqs,
		queueDepth: p.queueDepth,
		src:        src,
		adm:        adm,
		timeout:    p.timeout,
		maxRetries: p.retries,
		backoff:    p.backoff,
		classes:    classes,
		endToEnd:   true,
	})
}

// referenceOverload is the preset every overload/mix-* workload shares;
// only the arrival factor and admission policy vary across the grid.
func referenceOverload(factor float64, policy string) overloadProfile {
	return overloadProfile{
		handlers:   64,
		requests:   60000,
		queueDepth: 4096,
		factor:     factor,
		policy:     policy,
		mmpp:       true,
		timeout:    10 * msec,
		retries:    2,
		backoff:    1 * msec,
		classes:    overloadMix,
	}
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
			prof := referenceOverload(f, pol)
			register(&Workload{
				Name:         OverloadMixName(f, pol),
				Suite:        "overload",
				PaperSeconds: 1,
				Install:      prof.install,
			})
		}
	}
	// A diurnal single-class variant: the §5 idle-then-burst regime as a
	// day curve, no admission control, deadlines + retries only.
	diurnal := overloadProfile{
		handlers:   64,
		requests:   60000,
		queueDepth: 4096,
		policy:     "none",
		timeout:    10 * msec,
		retries:    2,
		backoff:    1 * msec,
		classes:    []overloadClass{{name: "web", prio: 0, share: 1, service: 900 * sim.Microsecond, cv: 0.5, slo: 4 * msec}},
	}
	register(&Workload{
		Name:         "overload/diurnal",
		Suite:        "overload",
		PaperSeconds: 1,
		Install: func(m *cpu.Machine, scale float64) {
			p := diurnal // copy: install must not mutate the template
			cap := p.capacityRate()
			sp := &ArrivalSpec{Kind: ArrDiurnal, Peak: 1.8 * cap, Trough: 0.3 * cap, Period: 100 * msec}
			src, err := sp.Source()
			if err != nil {
				panic(fmt.Sprintf("workload: diurnal arrival spec: %v", err))
			}
			reqs := scaleCount(p.requests, scale, 50)
			adm, _ := ParseAdmission("none")
			installOpenLoopPool(m, openLoopCfg{
				handlers:   p.handlers,
				total:      reqs,
				queueDepth: p.queueDepth,
				src:        src,
				adm:        adm,
				timeout:    p.timeout,
				maxRetries: p.retries,
				backoff:    p.backoff,
				classes: []reqClass{{
					name: "web", prio: 0, share: 1,
					svc: jitterCycles(m, p.classes[0].service, p.classes[0].cv),
					slo: p.classes[0].slo,
					acc: &sloAccum{class: "web", slo: p.classes[0].slo},
				}},
				endToEnd: true,
			})
		},
	})
}

// RegisterTraceWorkload registers an open-loop serving workload that
// replays the given arrival trace through the overload reference pool
// under the named admission policy ("none"/"cap"/"token"/"codel" or a
// full spec). Trace classes ("web"/"kv"/"script") select the reference
// mix's service distributions; unlabeled entries draw from the mix.
// The base arrival count is the trace length (scale still caps it).
func RegisterTraceWorkload(name string, entries []TraceEntry, policy string) error {
	if len(entries) == 0 {
		return fmt.Errorf("workload: trace %q has no arrivals", name)
	}
	sp := &ArrivalSpec{Kind: ArrTrace, Path: name, Trace: entries}
	if _, err := sp.Source(); err != nil {
		return fmt.Errorf("workload: trace %q: %w", name, err)
	}
	prof := referenceOverload(1, policy)
	if _, err := ParseAdmission(prof.admissionSpec()); err != nil {
		return fmt.Errorf("workload: trace %q admission: %w", name, err)
	}
	if _, err := ByName(name); err == nil {
		return fmt.Errorf("workload: %q already registered", name)
	}
	register(&Workload{
		Name:         name,
		Suite:        "trace",
		PaperSeconds: 1,
		Install: func(m *cpu.Machine, scale float64) {
			// Both were checked at registration; each cell builds its
			// own because sources and admission policies carry state.
			src, err := sp.Source()
			if err != nil {
				panic(fmt.Sprintf("workload: trace source: %v", err))
			}
			adm, err := ParseAdmission(prof.admissionSpec())
			if err != nil {
				panic(fmt.Sprintf("workload: trace admission: %v", err))
			}
			classes := make([]reqClass, len(prof.classes))
			for i, cl := range prof.classes {
				classes[i] = reqClass{
					name: cl.name, prio: cl.prio, share: cl.share,
					svc: jitterCycles(m, cl.service, cl.cv),
					slo: cl.slo,
					acc: &sloAccum{class: cl.name, slo: cl.slo, quiet: true},
				}
			}
			installOpenLoopPool(m, openLoopCfg{
				handlers:   prof.handlers,
				total:      scaleCount(len(entries), scale, 1),
				queueDepth: prof.queueDepth,
				src:        src,
				adm:        adm,
				timeout:    prof.timeout,
				maxRetries: prof.retries,
				backoff:    prof.backoff,
				classes:    classes,
				endToEnd:   true,
			})
		},
	})
	return nil
}

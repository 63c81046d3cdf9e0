// Package experiments wires machines, schedulers, governors and
// workloads into the paper's figures and tables, and renders the results
// as text reports.
package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cfs"
	nest "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/governor"
	"repro/internal/invariant"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/naive"
	"repro/internal/obs"
	"repro/internal/ordered"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/smove"
	"repro/internal/workload"
)

// SchedulerFactory builds a fresh policy per run (policies hold state).
type SchedulerFactory func() sched.Policy

// Schedulers returns the named policy factory: "cfs", "nest", "smove",
// or "nest:<toggle>[,...]" for ablation variants (see NestVariant).
func Schedulers(name string) (SchedulerFactory, error) {
	switch name {
	case "cfs":
		return func() sched.Policy { return cfs.Default() }, nil
	case "nest":
		return func() sched.Policy { return nest.Default() }, nil
	case "smove":
		return func() sched.Policy { return smove.Default() }, nil
	case "cfs:claims":
		// §3.4: the placement-flag optimisation applied to CFS alone,
		// the counterfactual the paper suggests evaluating.
		return func() sched.Policy { return cfs.New(cfs.Config{RespectClaims: true}) }, nil
	case "random":
		return func() sched.Policy { return naive.NewRandom() }, nil
	case "sticky":
		return func() sched.Policy { return naive.NewSticky() }, nil
	}
	if strings.HasPrefix(name, "nest:") {
		cfg, err := NestVariant(name)
		if err != nil {
			return nil, err
		}
		return func() sched.Policy { return nest.New(cfg) }, nil
	}
	return nil, fmt.Errorf("experiments: unknown scheduler %q", name)
}

// nestParams maps each Table 1 parameter override to the flag that
// disables the feature it tunes: an override must be a positive integer,
// and turning the feature off is the flag's job.
var nestParams = map[string]string{
	"premove":    "nocompact",
	"smax":       "nospin",
	"rmax":       "noreserve",
	"rimpatient": "noimpatience",
}

// NestParamScheduler names the Nest variant that sets one Table 1
// parameter to v: "nest:<param>=<v>", or for v = 0 the flag that turns
// the parameter's feature off (the §5.2/§5.3 parameter sweeps). An
// unknown parameter or a negative value is an error.
func NestParamScheduler(param string, v int) (string, error) {
	off, ok := nestParams[param]
	if !ok {
		return "", fmt.Errorf("experiments: unknown Nest parameter %q (want %s)", param, strings.Join(ordered.Keys(nestParams), ", "))
	}
	if v == 0 {
		return "nest:" + off, nil
	}
	name := fmt.Sprintf("nest:%s=%d", param, v)
	if _, err := NestVariant(name); err != nil {
		return "", err
	}
	return name, nil
}

// NestVariant parses "nest:flag[,flag...]" ablation names. Flags:
// noreserve, nocompact, nospin, noattach, nowc, noimpatience, noclaim,
// and parameter overrides premove=<ticks>, smax=<ticks>, rmax=<n>,
// rimpatient=<n>, each a positive integer.
func NestVariant(name string) (nest.Config, error) {
	cfg := nest.DefaultConfig()
	rest, ok := strings.CutPrefix(name, "nest:")
	if !ok || rest == "" {
		return cfg, fmt.Errorf("experiments: %q is not a nest variant (nest:<flag>[,...])", name)
	}
	for _, f := range splitComma(rest) {
		switch {
		case f == "noreserve":
			cfg.DisableReserve = true
		case f == "nocompact":
			cfg.DisableCompaction = true
		case f == "nospin":
			cfg.DisableSpin = true
		case f == "noattach":
			cfg.DisableAttach = true
		case f == "nowc":
			cfg.DisableWorkConservation = true
		case f == "noimpatience":
			cfg.DisableImpatience = true
		case f == "noclaim":
			cfg.DisableClaimCheck = true
		default:
			param, val, _ := strings.Cut(f, "=")
			off, ok := nestParams[param]
			if !ok {
				return cfg, fmt.Errorf("experiments: unknown flag %q in scheduler %q", f, name)
			}
			v, err := strconv.Atoi(val)
			if err != nil || v <= 0 {
				return cfg, fmt.Errorf("experiments: %s in scheduler %q must be a positive integer (use %s to turn the feature off)", f, name, off)
			}
			switch param {
			case "premove":
				cfg.PRemove = sim.Duration(v) * sim.Tick
			case "smax":
				cfg.SMax = sim.Duration(v) * sim.Tick
			case "rmax":
				cfg.RMax = v
			case "rimpatient":
				cfg.RImpatient = v
			}
		}
	}
	return cfg, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// RunSpec names one run.
type RunSpec struct {
	Machine string // preset name, e.g. "5218"
	// Spec, when non-nil, overrides Machine with an explicit machine
	// description (counterfactual hardware, test topologies) so that
	// non-preset runs can still travel through RunGrid.
	Spec      *machine.Spec
	Scheduler string // "cfs", "nest", "smove", "nest:<flags>"
	Governor  string // "schedutil" or "performance"
	Workload  string // registered workload name
	Scale     float64
	Seed      uint64
	// Obs, when non-nil, receives decision events and counters from every
	// layer of the run (see internal/obs and docs/OBSERVABILITY.md).
	// Per-tick traces ride it too: attach an obs.Trace or
	// obs.SeriesBuffer with SampleEvery = sim.Tick.
	Obs *obs.Hub
	// SampleEvery, when positive, emits periodic gauge batches (per-core
	// state/frequency/queue, nest size, per-socket busy share) through
	// Obs at this sim-time interval. It never changes simulation results.
	SampleEvery sim.Duration
	Limit       sim.Time // 0 = none
	// Faults, when non-empty, is a fault plan in the internal/fault DSL
	// (e.g. "off:c3@2s+500ms,throttle:s0@1s=2.1GHz") applied to the run.
	Faults string
	// Check, when non-nil, is bound to the machine and sweeps the
	// scheduler invariants after every event (see internal/invariant).
	// Like the other observers it attaches to the first repeat only.
	Check *invariant.Checker
	// onStart, when set, observes the built machine just before the run
	// loop starts. The grid pool's watchdog uses it to get a handle it
	// can stop from the timer goroutine; tests use it to inject
	// failures. Deliberately unexported: it cannot change the result of
	// a run that completes, so it stays out of the cell's identity
	// (CellKey).
	onStart func(*cpu.Machine)
	// heapEngine, when set, runs the cell on sim.NewEngineHeap — the
	// wheel-disabled differential oracle. Like onStart it is unexported
	// and outside CellKey: the two engines are required to produce
	// byte-identical results (differential_test.go), so the flag cannot
	// change a run's identity.
	heapEngine bool
}

// String names the cell compactly for error reports and logs, e.g.
// "5218/nest/schedutil/hackbench scale=0.04 seed=7".
func (rs RunSpec) String() string {
	mach := rs.Machine
	if mach == "" && rs.Spec != nil {
		mach = rs.Spec.Topo.Name()
	}
	s := fmt.Sprintf("%s/%s/%s/%s scale=%g seed=%d",
		mach, rs.Scheduler, rs.Governor, rs.Workload, rs.Scale, rs.Seed)
	if rs.Faults != "" {
		s += " faults=" + rs.Faults
	}
	return s
}

// Run executes one configuration and returns its measurements.
func Run(rs RunSpec) (*metrics.Result, error) {
	spec := rs.Spec
	if spec == nil {
		var err error
		spec, err = machine.Preset(rs.Machine)
		if err != nil {
			return nil, err
		}
	}
	return RunOnSpec(spec, rs)
}

// RunOnSpec is Run with an explicit machine spec (for non-preset
// machines in tests).
func RunOnSpec(spec *machine.Spec, rs RunSpec) (*metrics.Result, error) {
	sf, err := Schedulers(rs.Scheduler)
	if err != nil {
		return nil, err
	}
	gov, err := governor.ByName(rs.Governor)
	if err != nil {
		return nil, err
	}
	w, err := workload.ByName(rs.Workload)
	if err != nil {
		return nil, err
	}
	if rs.Scale <= 0 {
		rs.Scale = DefaultScale
	}
	plan, err := fault.Parse(rs.Faults)
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(spec); err != nil {
		return nil, err
	}
	mname := rs.Machine
	if mname == "" {
		mname = spec.Topo.Name()
	}
	if h := rs.Obs; h.Enabled() {
		h.Emit(obs.RunInfo{
			Machine: mname, Scheduler: rs.Scheduler, Governor: rs.Governor,
			Workload: rs.Workload, Scale: rs.Scale, Seed: rs.Seed,
		})
	}
	if rs.Check != nil {
		rs.Check.SetObs(rs.Obs)
	}
	var eng *sim.Engine
	if rs.heapEngine {
		eng = sim.NewEngineHeap()
	}
	m := cpu.New(cpu.Config{
		Spec:        spec,
		Gov:         gov,
		Policy:      sf(),
		Engine:      eng,
		Seed:        rs.Seed,
		Obs:         rs.Obs,
		SampleEvery: rs.SampleEvery,
		Check:       rs.Check,
	})
	plan.Apply(m)
	w.Install(m, rs.Scale)
	if rs.onStart != nil {
		rs.onStart(m)
	}
	res := m.Run(rs.Limit)
	res.Workload = rs.Workload
	if rs.Check != nil {
		res.SetCustom("invariant_violations", float64(rs.Check.Total()))
	}
	if h := rs.Obs; h.Enabled() {
		// Close the stream with the headline results so offline tooling
		// (cmd/nestobs diff) can compare runs from the events alone. The
		// summary is emitted after finalize, so it never appears in the
		// run's own Stats snapshot.
		tail := res.WakeLatency.Tail()
		h.Emit(obs.RunSummary{
			Machine: mname, Scheduler: rs.Scheduler, Governor: rs.Governor,
			Workload: rs.Workload, Seed: rs.Seed,
			RuntimeNS: int64(res.Runtime), EnergyJ: res.EnergyJ,
			WakeP50: int64(tail.P50), WakeP95: int64(tail.P95),
			WakeP99: int64(tail.P99), WakeP999: int64(tail.P999),
			Wakeups: int64(res.WakeLatency.Count()),
		})
	}
	return res, nil
}

// Validate checks rs's names, parameters and fault plan without running
// anything, so CLIs can reject bad flags as usage errors instead of
// surfacing a panic or a failure mid-run. Custom workloads must be
// registered before calling it.
func (rs RunSpec) Validate() error {
	spec := rs.Spec
	if spec == nil {
		var err error
		spec, err = machine.Preset(rs.Machine)
		if err != nil {
			return err
		}
	}
	if _, err := Schedulers(rs.Scheduler); err != nil {
		return err
	}
	if _, err := governor.ByName(rs.Governor); err != nil {
		return err
	}
	if _, err := workload.ByName(rs.Workload); err != nil {
		return err
	}
	if rs.Scale < 0 {
		return fmt.Errorf("experiments: scale must not be negative, got %g (0 selects the default)", rs.Scale)
	}
	plan, err := fault.Parse(rs.Faults)
	if err != nil {
		return err
	}
	return plan.Validate(spec)
}

// DefaultScale shortens workloads to ~1/25 of paper length so the full
// grid runs in minutes; use Scale 1 for paper-length runs.
const DefaultScale = 0.04

// RunRepeats executes n runs with consecutive seeds and returns all
// results. Observers (Obs and its recorders, Check) are
// attached to the first run only: they are single-run collectors, and
// mixing the events of several seeds into one stream or trace would be
// unreadable.
func RunRepeats(rs RunSpec, n int) ([]*metrics.Result, error) {
	return RunRepeatsParallel(rs, n, 1)
}

// RunRepeatsParallel is RunRepeats over the grid pool, spreading the
// seeds across workers (<= 1 runs serially). Repeats are independent
// simulations, so the results are byte-identical to the serial order.
func RunRepeatsParallel(rs RunSpec, n, workers int) ([]*metrics.Result, error) {
	return RunRepeatsOpts(rs, n, PoolOptions{Workers: workers})
}

// RunRepeatsOpts is RunRepeats with full pool options (watchdog budget,
// journal, cancellation) for callers that need more than a worker
// count.
func RunRepeatsOpts(rs RunSpec, n int, opts PoolOptions) ([]*metrics.Result, error) {
	out, err := RunGrid(RepeatSpecs(rs, n), opts)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Package nestsim is the public API of the Nest reproduction: build a
// simulated multicore server, pick a scheduling policy and power
// governor, install a workload, and measure what the EuroSys 2022 paper
// measures (run time, CPU energy, underload, frequency distributions,
// scheduler event counts).
//
// The minimal flow:
//
//	mach := nestsim.NewMachine(nestsim.Xeon5218, nestsim.Nest(), nestsim.Schedutil, 1)
//	mach.Spawn("worker", nestsim.Script(nestsim.Compute(mach.NominalCycles(time.Millisecond))))
//	res := mach.Run(0)
//	fmt.Println(res.Runtime, res.EnergyJ)
//
// Registered paper workloads (configure/llvm_ninja, dacapo/h2, nas/lu.C,
// phoronix/..., micro/..., server/...) run through Experiment:
//
//	res, err := nestsim.Experiment(nestsim.Config{
//	    Machine: nestsim.Xeon6130x2, Scheduler: "nest",
//	    Governor: "schedutil", Workload: "dacapo/h2",
//	})
//
// Everything is deterministic for a given seed and runs offline on the
// standard library alone.
package nestsim

import (
	"io"
	"time"

	nest "repro/internal/core"

	"repro/internal/cfs"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/smove"
	"repro/internal/workload"
)

// MachineID names one of the modelled servers.
type MachineID string

// The evaluated machines (Table 2) plus the §5.6 mono-socket boxes.
const (
	Xeon6130x2 MachineID = "6130-2"  // 2-socket 64-core Skylake
	Xeon6130x4 MachineID = "6130-4"  // 4-socket 128-core Skylake
	Xeon5218   MachineID = "5218"    // 2-socket 64-core Cascade Lake
	XeonE78870 MachineID = "e7-8870" // 4-socket 160-core Broadwell
	Xeon5220   MachineID = "5220"    // 1-socket 36-core Cascade Lake
	Ryzen4650G MachineID = "4650g"   // 1-socket 12-core Zen 2
)

// Machines lists all machine IDs.
func Machines() []MachineID {
	var out []MachineID
	for _, n := range machine.PresetNames() {
		out = append(out, MachineID(n))
	}
	return out
}

// GovernorID names a power governor.
type GovernorID string

// The evaluated governors (§2.3).
const (
	Schedutil   GovernorID = "schedutil"
	Performance GovernorID = "performance"
)

// Policy is a core-selection policy instance. Policies are stateful:
// build a fresh one per machine.
type Policy = sched.Policy

// CFS returns the Linux v5.9 CFS model (the paper's baseline).
func CFS() Policy { return cfs.Default() }

// Nest returns the paper's contribution with Table 1 parameters.
func Nest() Policy { return nest.Default() }

// NestConfig mirrors the Table 1 parameters and the ablation toggles.
type NestConfig = nest.Config

// NestWith returns Nest with modified parameters or disabled features.
func NestWith(cfg NestConfig) Policy { return nest.New(cfg) }

// DefaultNestConfig returns the Table 1 values.
func DefaultNestConfig() NestConfig { return nest.DefaultConfig() }

// Smove returns the prior-work baseline of Gouicem et al. (§2.2).
func Smove() Policy { return smove.Default() }

// PolicyByName resolves "cfs", "nest", "smove" or ablation names like
// "nest:nospin,premove=4".
func PolicyByName(name string) (Policy, error) {
	f, err := experiments.Schedulers(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// Result is one run's measurements; see the metrics package fields.
type Result = metrics.Result

// Trace captures per-tick core activity for rendering execution traces.
// It records from the run's per-tick gauge stream.
type Trace = obs.Trace

// NewTrace returns a trace capturing the window [start, end) of a run.
func NewTrace(start, end time.Duration) *Trace {
	return obs.NewTrace(sim.Time(start.Nanoseconds()), sim.Time(end.Nanoseconds()))
}

// traceHub returns the hub and sampling period that feed tr, or nothing
// when tr is nil.
func traceHub(tr *Trace) (*obs.Hub, sim.Duration) {
	if tr == nil {
		return nil, 0
	}
	return obs.New(tr), sim.Tick
}

// Machine is a simulated server ready to run tasks.
type Machine struct {
	inner *cpu.Machine
	spec  *machine.Spec
}

// NewMachine builds a machine from a preset, a policy and a governor.
// It panics on an unknown machine ID (the IDs are package constants).
func NewMachine(id MachineID, policy Policy, gov GovernorID, seed uint64) *Machine {
	return NewMachineTraced(id, policy, gov, seed, nil)
}

// NewMachineTraced is NewMachine with an activity trace attached.
func NewMachineTraced(id MachineID, policy Policy, gov GovernorID, seed uint64, tr *Trace) *Machine {
	spec, err := machine.Preset(string(id))
	if err != nil {
		panic(err)
	}
	g, err := governor.ByName(string(gov))
	if err != nil {
		panic(err)
	}
	h, every := traceHub(tr)
	m := cpu.New(cpu.Config{Spec: spec, Gov: g, Policy: policy, Seed: seed, Obs: h, SampleEvery: every})
	return &Machine{inner: m, spec: spec}
}

// NumCores returns the machine's hardware thread count.
func (m *Machine) NumCores() int { return m.spec.Topo.NumCores() }

// NominalCycles converts wall time at the machine's nominal frequency
// into a cycle count for Compute actions.
func (m *Machine) NominalCycles(d time.Duration) int64 {
	return proc.Cycles(sim.Duration(d.Nanoseconds()), m.spec.Nominal)
}

// Spawn starts a root task running b.
func (m *Machine) Spawn(name string, b Behavior) { m.inner.Spawn(name, b) }

// Install adds a registered paper workload (see Workloads) at the given
// scale (1 = paper length).
func (m *Machine) Install(workloadName string, scale float64) error {
	w, err := workload.ByName(workloadName)
	if err != nil {
		return err
	}
	w.Install(m.inner, scale)
	return nil
}

// Run executes until all tasks exit or the virtual-time limit (0 = no
// limit) and returns the measurements.
func (m *Machine) Run(limit time.Duration) *Result {
	return m.inner.Run(sim.Time(limit.Nanoseconds()))
}

// Behavior is a task program: it yields the next action every time the
// previous one completes.
type Behavior = proc.Behavior

// Action is one step of a Behavior.
type Action = proc.Action

// Compute returns an action that executes the given cycle count.
func Compute(cycles int64) Action { return proc.Compute{Cycles: cycles} }

// Sleep returns an action that blocks for a fixed duration.
func Sleep(d time.Duration) Action { return proc.Sleep{D: sim.Duration(d.Nanoseconds())} }

// Fork returns an action that starts a child task.
func Fork(name string, b Behavior) Action { return proc.Fork{Name: name, Behavior: b} }

// WaitChildren returns an action that blocks until all children exit.
func WaitChildren() Action { return proc.WaitChildren{} }

// Script plays the given actions in order, then exits the task.
func Script(actions ...Action) Behavior { return proc.Script(actions...) }

// Workloads lists all registered paper workloads.
func Workloads() []string { return workload.Names() }

// RegisterCustomWorkload parses a JSON workload spec (see
// internal/workload.CustomSpec for the schema) and registers it; the
// returned name is addressable in Config.Workload and Machine.Install.
func RegisterCustomWorkload(r io.Reader) (string, error) {
	w, err := workload.RegisterCustom(r)
	if err != nil {
		return "", err
	}
	return w.Name, nil
}

// Config names one experiment cell for Experiment.
type Config struct {
	Machine   MachineID
	Scheduler string // "cfs", "nest", "smove", "nest:<flags>"
	Governor  GovernorID
	Workload  string
	Scale     float64 // 0 = default (≈1/25 of paper length)
	Seed      uint64
	Trace     *Trace
}

// Experiment runs one registered workload under one configuration.
func Experiment(c Config) (*Result, error) {
	h, every := traceHub(c.Trace)
	return experiments.Run(experiments.RunSpec{
		Machine:     string(c.Machine),
		Scheduler:   c.Scheduler,
		Governor:    string(c.Governor),
		Workload:    c.Workload,
		Scale:       c.Scale,
		Seed:        c.Seed,
		Obs:         h,
		SampleEvery: every,
	})
}

// Speedup is the paper's normalised improvement for lower-is-better
// metrics: baseline/value − 1.
func Speedup(baseline, value float64) float64 { return metrics.Speedup(baseline, value) }

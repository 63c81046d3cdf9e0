// Package workload defines the benchmark families of the paper's
// evaluation (§5) as synthetic task programs: the software-configuration
// suite, DaCapo, the NAS parallel benchmarks, the Phoronix multicore
// suite, hackbench/schbench and the server tests.
//
// The paper's results are driven by task shape — how many tasks exist,
// how long they run, how often they fork, block and wake — rather than
// instruction mix, so each benchmark is modelled by a small parameterised
// program whose shape matches what §5 reports (task counts, runtimes,
// underload). Absolute durations are expressed as compute time at the
// machine's nominal frequency; speedups then emerge purely from placement
// and frequency dynamics.
package workload

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/ordered"
	"repro/internal/proc"
	"repro/internal/sim"
)

// Workload is one runnable benchmark.
type Workload struct {
	// Name is the benchmark's identifier, e.g. "configure/llvm_ninja".
	Name string
	// Suite groups workloads ("configure", "dacapo", "nas", "phoronix",
	// "micro", "server").
	Suite string
	// PaperSeconds is the CFS-schedutil runtime the paper reports (on
	// the 64-core 5218 where available), used to sanity-check scale.
	PaperSeconds float64
	// Install spawns the workload's root tasks on m. scale in (0, 1]
	// shortens the run by reducing iteration counts, never task sizes,
	// so per-task frequency dynamics are preserved.
	Install func(m *cpu.Machine, scale float64)
}

// registry holds all defined workloads by name.
var registry = map[string]*Workload{}

func register(w *Workload) *Workload {
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate %q", w.Name))
	}
	registry[w.Name] = w
	return w
}

// ByName returns a registered workload.
func ByName(name string) (*Workload, error) {
	if w, ok := registry[name]; ok {
		return w, nil
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}

// Names returns all registered workload names, sorted.
func Names() []string {
	return ordered.Keys(registry)
}

// Suite returns the workloads of a suite in registration-stable (sorted)
// order.
func Suite(suite string) []*Workload {
	var out []*Workload
	for _, n := range Names() {
		if registry[n].Suite == suite {
			out = append(out, registry[n])
		}
	}
	return out
}

// scaleCount scales an iteration count, keeping at least min.
func scaleCount(n int, scale float64, min int) int {
	v := int(float64(float64(n)*scale) + 0.5)
	if v < min {
		v = min
	}
	return v
}

// nominalCycles converts duration-at-nominal into cycles for m's machine.
func nominalCycles(m *cpu.Machine, d sim.Duration) int64 {
	return proc.Cycles(d, m.Spec().Nominal)
}

// jitterCycles returns lognormally jittered work around mean (at
// nominal), using the machine's RNG deterministically.
func jitterCycles(m *cpu.Machine, mean sim.Duration, cv float64) func(r *sim.Rand) int64 {
	nom := m.Spec().Nominal
	ln := sim.NewLogNormal(mean, cv)
	return func(r *sim.Rand) int64 {
		return proc.Cycles(ln.Draw(r), nom)
	}
}

// compute builds a Compute action for d at nominal frequency.
func compute(m *cpu.Machine, d sim.Duration) proc.Action {
	return proc.Compute{Cycles: nominalCycles(m, d)}
}

// kid is one forked short-lived child as a single owned record: the
// Fork that starts it and the Computes it runs (see proc.Action). The
// parent queues &k.fork, so a fork costs the record and its behaviour's
// method value and boxes no action.
type kid struct {
	fork proc.Fork
	stub proc.Compute // shell stub run before the exec
	work proc.Compute
	step uint8
}

// newKid returns a child that computes work cycles and exits.
func newKid(name string, work int64) *kid {
	k := &kid{work: proc.Compute{Cycles: work}, step: 2}
	k.fork = proc.Fork{Name: name, Behavior: k.next}
	return k
}

// newExecKid returns a child that forks and execs the way a shell's
// command does: it runs stub cycles of shell, execs (re-running
// placement), then computes work cycles and exits.
func newExecKid(name string, stub, work int64) *kid {
	k := newKid(name, work)
	k.stub.Cycles, k.step = stub, 0
	return k
}

func (k *kid) next(*proc.Task, *sim.Rand) proc.Action {
	k.step++
	switch k.step {
	case 1:
		return &k.stub
	case 2:
		return proc.Exec{}
	case 3:
		return &k.work
	}
	return proc.Exit{}
}

// spawnWorkers forks n identical workers from a coordinator root task and
// waits for them, the common shape of the parallel benchmarks.
func spawnWorkers(m *cpu.Machine, name string, n int, worker func(i int) proc.Behavior) {
	actions := make([]proc.Action, 0, n+1)
	for i := 0; i < n; i++ {
		actions = append(actions, proc.Fork{Name: fmt.Sprintf("%s-%d", name, i), Behavior: worker(i)})
	}
	actions = append(actions, proc.WaitChildren{})
	m.Spawn(name, proc.Script(actions...))
}

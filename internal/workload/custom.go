package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cpu"
	"repro/internal/proc"
	"repro/internal/sim"
)

// CustomSpec defines a workload from data (JSON), so downstream users
// can model their own applications without writing Go. A workload is a
// set of task groups; each group's tasks iterate compute/wait cycles,
// optionally synchronising on a shared barrier, and a group can instead
// be a dispatcher forking short-lived children (the configure shape).
type CustomSpec struct {
	// Name registers the workload as "custom/<Name>".
	Name string `json:"name"`
	// Groups are the task populations.
	Groups []CustomGroup `json:"groups"`
}

// CustomGroup is one population of identical tasks.
type CustomGroup struct {
	// Name labels the tasks (for traces).
	Name string `json:"name"`
	// Count is the number of tasks (default 1).
	Count int `json:"count"`
	// Iterations per task at scale 1 (default 100).
	Iterations int `json:"iterations"`
	// ComputeUS is the mean compute per iteration in microseconds at
	// nominal frequency; ComputeCV its log-normal spread.
	ComputeUS float64 `json:"compute_us"`
	ComputeCV float64 `json:"compute_cv"`
	// SleepUS is the mean wait between iterations (0 = none);
	// SleepCV its spread. ScaleSleep makes waits track progress, the
	// lock-wait model.
	SleepUS    float64 `json:"sleep_us"`
	SleepCV    float64 `json:"sleep_cv"`
	ScaleSleep bool    `json:"scale_sleep"`
	// Barrier names a barrier shared by every group using the same
	// name; all members synchronise per iteration. ActiveWait selects
	// OpenMP-style busy waiting.
	Barrier    string `json:"barrier"`
	ActiveWait bool   `json:"active_wait"`
	// StartIdleUS delays each task's first iteration.
	StartIdleUS float64 `json:"start_idle_us"`
	// ForkChildren turns the group into dispatchers: each iteration
	// forks this many children running ComputeUS of work and waits for
	// them (the configure/zstd-batch shape). Sleep fields then model
	// dispatcher think time.
	ForkChildren int `json:"fork_children"`
}

// Validate checks the spec for obvious mistakes.
func (s *CustomSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("custom workload needs a name")
	}
	if len(s.Groups) == 0 {
		return fmt.Errorf("custom workload %q has no groups", s.Name)
	}
	for i, g := range s.Groups {
		if g.ComputeUS < 0 || g.SleepUS < 0 || g.StartIdleUS < 0 {
			return fmt.Errorf("group %d: negative durations", i)
		}
		if g.ComputeUS == 0 && g.ForkChildren == 0 {
			return fmt.Errorf("group %d: no compute and no forked children", i)
		}
		if g.Count < 0 || g.Iterations < 0 || g.ForkChildren < 0 {
			return fmt.Errorf("group %d: negative counts", i)
		}
		if g.Barrier != "" && g.ForkChildren > 0 {
			return fmt.Errorf("group %d: barrier and fork_children are exclusive", i)
		}
	}
	return nil
}

// build installs the spec's tasks on m.
func (s *CustomSpec) build(m *cpu.Machine, scale float64) {
	us := func(v float64) sim.Duration { return sim.Duration(v * float64(sim.Microsecond)) }
	barriers := map[string]*proc.Barrier{}
	// Pre-size barriers: parties = total count over groups sharing it.
	for _, g := range s.Groups {
		if g.Barrier == "" {
			continue
		}
		count := g.Count
		if count == 0 {
			count = 1
		}
		if b, ok := barriers[g.Barrier]; ok {
			b.Parties += count
		} else {
			nb := proc.NewBarrier(g.Barrier, count)
			nb.ActiveWait = g.ActiveWait
			barriers[g.Barrier] = nb
		}
	}

	var actions []proc.Action
	for gi := range s.Groups {
		g := s.Groups[gi]
		count := g.Count
		if count == 0 {
			count = 1
		}
		iters := g.Iterations
		if iters == 0 {
			iters = 100
		}
		iters = scaleCount(iters, scale, 5)
		work := jitterCycles(m, us(g.ComputeUS), g.ComputeCV)
		sleep := sim.NewLogNormal(us(g.SleepUS), maxf(g.SleepCV, 0.2))
		nominal := m.Spec().Nominal

		mk := func() proc.Behavior {
			left := iters
			started := g.StartIdleUS == 0
			state := 0
			var burstStart sim.Time
			var burstIdeal sim.Duration
			var pending []proc.Action
			var burst proc.Compute // owned actions (see proc.Action)
			var wait proc.Sleep
			return func(t *proc.Task, r *sim.Rand) proc.Action {
				if !started {
					started = true
					return proc.Sleep{D: us(g.StartIdleUS)}
				}
				if len(pending) > 0 {
					a := pending[0]
					pending = pending[1:]
					return a
				}
				if left <= 0 {
					return proc.Exit{}
				}
				if g.ForkChildren > 0 {
					left--
					for i := 0; i < g.ForkChildren; i++ {
						pending = append(pending, proc.Fork{
							Name:     g.Name + "-kid",
							Behavior: proc.Once(proc.Compute{Cycles: work(r)}),
						})
					}
					pending = append(pending, proc.WaitChildren{})
					if g.SleepUS > 0 {
						pending = append(pending, proc.Sleep{D: sleep.Draw(r)})
					}
					a := pending[0]
					pending = pending[1:]
					return a
				}
				switch state {
				case 0:
					state = 1
					c := work(r)
					burstStart = t.Now
					burstIdeal = proc.TimeFor(c, nominal)
					burst.Cycles = c
					return &burst
				default:
					state = 0
					left--
					if b := barriers[g.Barrier]; b != nil {
						return proc.BarrierWait{B: b}
					}
					if g.SleepUS <= 0 {
						if left <= 0 {
							return proc.Exit{}
						}
						state = 1
						c := work(r)
						burstStart = t.Now
						burstIdeal = proc.TimeFor(c, nominal)
						burst.Cycles = c
						return &burst
					}
					d := sleep.Draw(r)
					if g.ScaleSleep && burstIdeal > 0 {
						ratio := float64(t.Now-burstStart) / float64(burstIdeal)
						if ratio < 0.4 {
							ratio = 0.4
						}
						if ratio > 3 {
							ratio = 3
						}
						d = sim.Duration(float64(d) * (0.25 + 0.75*ratio))
					}
					wait.D = d
					return &wait
				}
			}
		}
		for i := 0; i < count; i++ {
			actions = append(actions, proc.Fork{Name: fmt.Sprintf("%s-%d", g.Name, i), Behavior: mk()})
		}
	}
	actions = append(actions, proc.WaitChildren{})
	m.Spawn("custom-main", proc.Script(actions...))
}

// LoadCustom parses a JSON CustomSpec and returns an installable
// workload (not registered globally).
func LoadCustom(r io.Reader) (*Workload, error) {
	var spec CustomSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("custom workload: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Workload{
		Name:  "custom/" + spec.Name,
		Suite: "custom",
		Install: func(m *cpu.Machine, scale float64) {
			spec.build(m, scale)
		},
	}, nil
}

// RegisterCustom parses and registers a custom workload so it is
// addressable by name in the harness. Registering a duplicate name
// fails.
func RegisterCustom(r io.Reader) (*Workload, error) {
	w, err := LoadCustom(r)
	if err != nil {
		return nil, err
	}
	if _, exists := registry[w.Name]; exists {
		return nil, fmt.Errorf("workload %q already registered", w.Name)
	}
	return register(w), nil
}

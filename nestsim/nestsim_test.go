package nestsim_test

import (
	"testing"
	"time"

	"repro/nestsim"
)

func TestMachinesListed(t *testing.T) {
	ms := nestsim.Machines()
	if len(ms) != 6 {
		t.Fatalf("machines = %v", ms)
	}
	found := map[nestsim.MachineID]bool{}
	for _, m := range ms {
		found[m] = true
	}
	for _, want := range []nestsim.MachineID{
		nestsim.Xeon6130x2, nestsim.Xeon6130x4, nestsim.Xeon5218,
		nestsim.XeonE78870, nestsim.Xeon5220, nestsim.Ryzen4650G,
	} {
		if !found[want] {
			t.Fatalf("machine %q missing", want)
		}
	}
}

func TestBasicRun(t *testing.T) {
	m := nestsim.NewMachine(nestsim.Xeon5218, nestsim.Nest(), nestsim.Schedutil, 1)
	if m.NumCores() != 64 {
		t.Fatalf("NumCores = %d", m.NumCores())
	}
	m.Spawn("worker", nestsim.Script(
		nestsim.Compute(m.NominalCycles(5*time.Millisecond)),
		nestsim.Sleep(time.Millisecond),
		nestsim.Compute(m.NominalCycles(5*time.Millisecond)),
	))
	res := m.Run(time.Second)
	if res.Runtime <= 0 || res.EnergyJ <= 0 {
		t.Fatalf("empty result %+v", res)
	}
	if res.Custom["truncated"] != 0 {
		t.Fatal("truncated")
	}
}

func TestForkJoinViaFacade(t *testing.T) {
	m := nestsim.NewMachine(nestsim.Xeon6130x2, nestsim.CFS(), nestsim.Performance, 2)
	work := m.NominalCycles(2 * time.Millisecond)
	var actions []nestsim.Action
	for i := 0; i < 8; i++ {
		actions = append(actions, nestsim.Fork("kid", nestsim.Script(nestsim.Compute(work))))
	}
	actions = append(actions, nestsim.WaitChildren())
	m.Spawn("parent", nestsim.Script(actions...))
	res := m.Run(time.Second)
	if res.Counters.Forks != 9 {
		t.Fatalf("forks = %d", res.Counters.Forks)
	}
}

func TestInstallRegisteredWorkload(t *testing.T) {
	m := nestsim.NewMachine(nestsim.Xeon5218, nestsim.Nest(), nestsim.Schedutil, 3)
	if err := m.Install("configure/gcc", 0.01); err != nil {
		t.Fatal(err)
	}
	if err := m.Install("no/such", 0.01); err == nil {
		t.Fatal("bogus workload accepted")
	}
	res := m.Run(time.Minute)
	if res.Counters.Forks == 0 {
		t.Fatal("workload did not run")
	}
}

func TestExperimentAndSpeedup(t *testing.T) {
	base, err := nestsim.Experiment(nestsim.Config{
		Machine: nestsim.Xeon5218, Scheduler: "cfs", Governor: nestsim.Schedutil,
		Workload: "configure/gcc", Scale: 0.02, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	nest, err := nestsim.Experiment(nestsim.Config{
		Machine: nestsim.Xeon5218, Scheduler: "nest", Governor: nestsim.Schedutil,
		Workload: "configure/gcc", Scale: 0.02, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := nestsim.Speedup(base.Runtime.Seconds(), nest.Runtime.Seconds()); s <= 0 {
		t.Fatalf("nest speedup %.2f on the fork-heavy case", s)
	}
}

func TestTracedRun(t *testing.T) {
	tr := nestsim.NewTrace(0, 500*time.Millisecond)
	if _, err := nestsim.Experiment(nestsim.Config{
		Machine: nestsim.Xeon5218, Scheduler: "cfs", Governor: nestsim.Schedutil,
		Workload: "configure/gcc", Scale: 0.02, Seed: 1, Trace: tr,
	}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) == 0 || len(tr.UnderloadSeries) == 0 {
		t.Fatalf("trace empty: %d points, %d underload intervals", len(tr.Points), len(tr.UnderloadSeries))
	}

	// The same window through a hand-built machine.
	tr2 := nestsim.NewTrace(0, 500*time.Millisecond)
	m := nestsim.NewMachineTraced(nestsim.Xeon5218, nestsim.CFS(), nestsim.Schedutil, 1, tr2)
	if err := m.Install("configure/gcc", 0.02); err != nil {
		t.Fatal(err)
	}
	m.Run(0)
	if len(tr2.Points) != len(tr.Points) || len(tr2.UnderloadSeries) != len(tr.UnderloadSeries) {
		t.Fatalf("NewMachineTraced: %d points, %d intervals; Experiment: %d, %d",
			len(tr2.Points), len(tr2.UnderloadSeries), len(tr.Points), len(tr.UnderloadSeries))
	}
}

func TestPolicyByName(t *testing.T) {
	for _, n := range []string{"cfs", "nest", "smove", "nest:nospin,smax=4"} {
		p, err := nestsim.PolicyByName(n)
		if err != nil || p == nil {
			t.Fatalf("PolicyByName(%q): %v", n, err)
		}
	}
	if _, err := nestsim.PolicyByName("rr"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestNestWithAblation(t *testing.T) {
	cfg := nestsim.DefaultNestConfig()
	cfg.DisableSpin = true
	m := nestsim.NewMachine(nestsim.Xeon5218, nestsim.NestWith(cfg), nestsim.Schedutil, 1)
	m.Spawn("w", nestsim.Script(
		nestsim.Compute(m.NominalCycles(2*time.Millisecond)),
		nestsim.Sleep(3*time.Millisecond),
		nestsim.Compute(m.NominalCycles(2*time.Millisecond)),
	))
	res := m.Run(time.Second)
	if res.Counters.SpinTicksTotal != 0 {
		t.Fatal("DisableSpin ignored through the facade")
	}
}

// TestNestWithZeroConfig: a zero NestConfig takes the Table 1 defaults
// and runs exactly like Nest().
func TestNestWithZeroConfig(t *testing.T) {
	run := func(p nestsim.Policy) *nestsim.Result {
		m := nestsim.NewMachine(nestsim.Xeon5218, p, nestsim.Schedutil, 1)
		if err := m.Install("micro/hackbench", 0.01); err != nil {
			t.Fatal(err)
		}
		return m.Run(0)
	}
	want, got := run(nestsim.Nest()), run(nestsim.NestWith(nestsim.NestConfig{}))
	if got.Runtime != want.Runtime || got.EnergyJ != want.EnergyJ || got.Counters != want.Counters {
		t.Fatalf("NestWith(NestConfig{}) ran %v %vJ %+v, Nest() ran %v %vJ %+v",
			got.Runtime, got.EnergyJ, got.Counters, want.Runtime, want.EnergyJ, want.Counters)
	}
}

func TestWorkloadsExposed(t *testing.T) {
	ws := nestsim.Workloads()
	if len(ws) < 262 {
		t.Fatalf("only %d workloads exposed", len(ws))
	}
}

package cpu

import (
	"fmt"
	"testing"

	"repro/internal/cfs"
	nest "repro/internal/core"
	"repro/internal/governor"
	"repro/internal/invariant"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
)

// spawnForkStorm installs a root task forking n compute children, so
// that queues are populated when a fault lands.
func spawnForkStorm(m *Machine, spec *machine.Spec, n int, work sim.Duration) {
	var actions []proc.Action
	for i := 0; i < n; i++ {
		actions = append(actions, proc.Fork{
			Name:     fmt.Sprintf("w%d", i),
			Behavior: proc.Script(proc.Compute{Cycles: proc.Cycles(work, spec.Nominal)}),
		})
	}
	actions = append(actions, proc.WaitChildren{}, proc.Exit{})
	m.Spawn("root", proc.Script(actions...))
}

// hotplugUnderLoad offlines cores mid-run under the given policy and
// checks the run drains with no invariant violation and no lost task.
func hotplugUnderLoad(t *testing.T, pol sched.Policy) (*Machine, *invariant.Checker, *obs.Hub) {
	t.Helper()
	spec := machine.IntelXeon5218()
	hub := obs.New()
	check := invariant.New()
	check.SetObs(hub)
	m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: pol, Seed: 1, Obs: hub, Check: check})
	spawnForkStorm(m, spec, 40, 25*sim.Millisecond)

	// Offline a whole physical core (both hyperthreads) plus a neighbour
	// once the load is up; bring one back while the run is still draining.
	sib := spec.Topo.Sibling(2)
	m.Engine().PostRun(4*sim.Millisecond, fn(func() { m.OfflineCore(2) }))
	m.Engine().PostRun(4*sim.Millisecond, fn(func() { m.OfflineCore(sib) }))
	m.Engine().PostRun(5*sim.Millisecond, fn(func() { m.OfflineCore(3) }))
	m.Engine().PostRun(12*sim.Millisecond, fn(func() { m.OnlineCore(2) }))

	res := m.Run(5 * sim.Second)
	if res == nil {
		t.Fatal("run returned nil result")
	}
	for _, tk := range m.tasks {
		if tk.State != proc.StateExited {
			t.Errorf("task %d (%s) ended in state %v", tk.ID, tk.Name, tk.State)
		}
	}
	if n := check.Total(); n != 0 {
		t.Fatalf("%d invariant violations, first: %v", n, check.Violations()[0])
	}
	if check.Checks() == 0 {
		t.Fatal("checker never swept")
	}
	return m, check, hub
}

func TestHotplugUnderLoadNest(t *testing.T) {
	// Core 2 is inside the primary nest by 4ms under this load, so the
	// offline exercises evacuation plus mask compaction.
	m, _, hub := hotplugUnderLoad(t, nest.Default())
	snap := hub.Snapshot()
	if snap["fault.offline"] != 3 || snap["fault.online"] != 1 {
		t.Fatalf("hotplug counters wrong: %v", snap)
	}
	if snap["nest.evacuate"] == 0 {
		t.Fatalf("nest never compacted an offlined core out of its masks: %v", snap)
	}
	for c := 0; c < m.topo.NumCores(); c++ {
		if !m.Online(machine.CoreID(c)) && c != 3 && c != int(m.topo.Sibling(2)) {
			t.Fatalf("core %d unexpectedly offline", c)
		}
	}
}

func TestHotplugUnderLoadCFS(t *testing.T) {
	_, _, hub := hotplugUnderLoad(t, cfs.Default())
	if hub.Snapshot()["fault.offline"] != 3 {
		t.Fatalf("hotplug counters wrong: %v", hub.Snapshot())
	}
}

// TestOfflineCoreCarriesNoLoad offlines a core while it runs a long
// task: from then on the core's signals sit at level 0 and it adds
// nothing to its socket's load, though the task it ran was busy.
func TestOfflineCoreCarriesNoLoad(t *testing.T) {
	spec := machine.IntelXeon5218()
	check := invariant.New()
	m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: cfs.Default(), Seed: 1, Check: check})
	busy := m.Spawn("busy", proc.Once(proc.Compute{Cycles: proc.Cycles(600*sim.Millisecond, spec.Nominal)}))
	victim := machine.CoreID(-1)
	m.Engine().PostRun(10*sim.Millisecond, fn(func() {
		victim = busy.Cur
		m.OfflineCore(victim)
	}))
	checked := false
	m.Engine().PostRun(200*sim.Millisecond, fn(func() {
		checked = true
		cs := &m.cores[victim]
		if u, hw := cs.util.Level(), cs.hwUtil.Level(); u != 0 || hw != 0 {
			t.Errorf("offline core %d has levels %g/%g, want 0/0", victim, u, hw)
		}
		if l := m.LoadAvg(victim); l != 0 {
			t.Errorf("offline core %d has LoadAvg %g, want 0", victim, l)
		}
	}))
	m.Run(sim.Second)
	if victim < 0 || !checked {
		t.Fatal("the offline or the probe never ran")
	}
	if busy.State != proc.StateExited {
		t.Fatalf("evacuated task ended in state %v", busy.State)
	}
	if n := check.Total(); n != 0 {
		t.Fatalf("%d invariant violations, first: %v", n, check.Violations()[0])
	}
}

func TestOfflineLastCoreRefused(t *testing.T) {
	spec := &machine.Spec{
		Topo: machine.New("tiny", 1, 1, 2), Arch: "test",
		Min: 1000, Nominal: 2000,
		IdleSocketW: 1, ActiveBaseW: 1, DynPerGHzW: 1,
	}
	hub := obs.New()
	m := New(Config{Spec: spec, Gov: governor.Performance{}, Policy: cfs.Default(), Seed: 1, Obs: hub})
	m.OfflineCore(0)
	m.OfflineCore(1) // would leave zero online cores
	if m.Online(0) || !m.Online(1) {
		t.Fatalf("online state wrong: c0=%v c1=%v", m.Online(0), m.Online(1))
	}
	if hub.Snapshot()["fault.offline_refused"] != 1 {
		t.Fatalf("refusal not counted: %v", hub.Snapshot())
	}
}

func TestThrottleCapsFrequencyUnderCheck(t *testing.T) {
	spec := machine.IntelXeon5218()
	check := invariant.New()
	m := New(Config{Spec: spec, Gov: governor.Performance{}, Policy: cfs.Default(), Seed: 1, Check: check})
	spawnForkStorm(m, spec, 8, 20*sim.Millisecond)
	m.Engine().PostRun(4*sim.Millisecond, fn(func() { m.ThrottleSocket(0, 1800) }))
	m.Engine().PostRun(30*sim.Millisecond, fn(func() { m.ThrottleSocket(0, 0) }))
	m.Run(5 * sim.Second)
	// The freq_above_cap invariant swept every event during the throttle
	// window; zero violations means every grant respected the cap.
	if check.Total() != 0 {
		t.Fatalf("throttle violated invariants: %v", check.Violations()[0])
	}
}

// brokenPolicy corrupts Task.Cur whenever a task is scheduled in — the
// seeded bug the invariant checker must catch.
type brokenPolicy struct{ *cfs.Policy }

func (b brokenPolicy) ScheduledIn(m sched.Machine, t *proc.Task, c machine.CoreID) {
	t.Cur = c + 1 // lie about where the task is
}

func TestCheckerCatchesSeededPolicyBug(t *testing.T) {
	spec := machine.IntelXeon5218()
	check := invariant.New()
	m := New(Config{Spec: spec, Gov: governor.Performance{}, Policy: brokenPolicy{cfs.Default()}, Seed: 1, Check: check})
	m.Spawn("w", proc.Script(proc.Compute{Cycles: proc.Cycles(sim.Millisecond, spec.Nominal)}))
	m.Run(sim.Second)
	if check.Total() == 0 {
		t.Fatal("checker missed the seeded Cur corruption")
	}
	found := false
	for _, v := range check.Violations() {
		if v.Rule == "running_cur" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a running_cur violation, got %v", check.Violations())
	}
}

func TestTickJitterPreservesCompletion(t *testing.T) {
	spec := machine.IntelXeon5218()
	check := invariant.New()
	m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: nest.Default(), Seed: 1, Check: check})
	spawnForkStorm(m, spec, 16, 5*sim.Millisecond)
	m.SetTickJitter(sim.Millisecond)
	m.Run(5 * sim.Second)
	for _, tk := range m.tasks {
		if tk.State != proc.StateExited {
			t.Fatalf("task %d stuck in %v under tick jitter", tk.ID, tk.State)
		}
	}
	if check.Total() != 0 {
		t.Fatalf("jitter violated invariants: %v", check.Violations()[0])
	}
}

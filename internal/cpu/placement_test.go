package cpu

import (
	"testing"

	"repro/internal/cfs"
	"repro/internal/governor"
	"repro/internal/invariant"
	"repro/internal/machine"
	"repro/internal/proc"
	"repro/internal/sim"
)

// idleBit and claimedBit read core c's bits the way a placement does.
func idleBit(m *Machine, c machine.CoreID) bool {
	return m.IdleMask(m.sockOf[c]).Has(m.posOf[c])
}

func claimedBit(m *Machine, c machine.CoreID) bool {
	return m.ClaimedMask(m.sockOf[c]).Has(m.posOf[c])
}

// idleCore returns an idle, unclaimed core of socket s other than the
// given ones, or fails the test.
func idleCore(t *testing.T, m *Machine, s int, not ...machine.CoreID) machine.CoreID {
	t.Helper()
next:
	for _, c := range m.topo.SocketCores(s) {
		for _, x := range not {
			if c == x {
				continue next
			}
		}
		if m.IsIdle(c) && !m.cores[c].claimed {
			return c
		}
	}
	t.Fatalf("t=%v: no idle core on socket %d", m.Now(), s)
	return -1
}

// TestPlacementStateSurvivesEveryMaskWrite drives each write that changes
// a core's idle or claimed bit or its socket's runnable count — dispatch
// and enqueue, scheduleIn, a block and an exit, the Smove timer move, a
// balance pull, and hotplug off and on — with the invariant checker on.
// The idle_masks and socket_running rules compare the served state with
// a recount after every event and must stay silent; spot checks read the
// served masks and counts at each step.
func TestPlacementStateSurvivesEveryMaskWrite(t *testing.T) {
	spec := machine.IntelXeon5218()
	check := invariant.New()
	m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: cfs.Default(), Seed: 1, Check: check})
	anchor := m.Spawn("anchor", proc.Script(proc.Sleep{D: 100 * sim.Millisecond}))
	eng := m.Engine()
	compute := func(d sim.Duration) *proc.Task {
		return m.newTask("w", computeFor(spec, d), nil)
	}
	running := func(s int) int { return m.SocketRunning()[s] }

	// Dispatch claims the core and counts as arriving load; the enqueue
	// drops the claim and scheduleIn makes the core busy. The task then
	// blocks in a sleep, runs again and exits.
	var a machine.CoreID
	var blocker *proc.Task
	eng.At(10*sim.Millisecond, func() {
		a = idleCore(t, m, 0)
		n := running(0)
		blocker = m.newTask("b", proc.Script(
			proc.Compute{Cycles: proc.Cycles(sim.Millisecond, spec.Nominal)},
			proc.Sleep{D: sim.Millisecond},
			proc.Compute{Cycles: proc.Cycles(sim.Millisecond, spec.Nominal)},
		), nil)
		m.dispatch(blocker, a)
		if !claimedBit(m, a) || running(0) != n+1 {
			t.Errorf("after dispatch: claimed %v, socket count %d, want true and %d", claimedBit(m, a), running(0), n+1)
		}
	})
	eng.At(10*sim.Millisecond+100*sim.Microsecond, func() {
		if claimedBit(m, a) || idleBit(m, a) || blocker.Cur != a {
			t.Errorf("after scheduleIn: claimed %v, idle %v, task on %d", claimedBit(m, a), idleBit(m, a), blocker.Cur)
		}
	})
	eng.At(11*sim.Millisecond+500*sim.Microsecond, func() {
		if blocker.State != proc.StateSleeping || !idleBit(m, a) {
			t.Errorf("after the block: task %v, idle bit %v", blocker.State, idleBit(m, a))
		}
	})

	// Two tasks on core b: the waiter moves by the Smove timer to an idle
	// core c of the same socket.
	var b, c machine.CoreID
	var waiter *proc.Task
	eng.At(20*sim.Millisecond, func() {
		b = idleCore(t, m, 1)
		m.dispatch(compute(10*sim.Millisecond), b)
		waiter = compute(10 * sim.Millisecond)
		m.dispatch(waiter, b)
	})
	eng.At(20*sim.Millisecond+100*sim.Microsecond, func() {
		c = idleCore(t, m, 1, b)
		if waiter.Cur != b || running(1) < 2 {
			t.Fatalf("waiter on %d, socket count %d", waiter.Cur, running(1))
		}
		m.MoveIfStillQueued(waiter, c, 50*sim.Microsecond)
	})
	eng.At(20*sim.Millisecond+300*sim.Microsecond, func() {
		if waiter.Cur != c || idleBit(m, c) {
			t.Errorf("Smove timer: waiter on %d, idle bit of %d %v", waiter.Cur, c, idleBit(m, c))
		}
	})

	// Two more tasks on one core: a balance pull (newidle or periodic)
	// takes the waiter off it.
	balances := int64(0)
	eng.At(40*sim.Millisecond, func() {
		d := idleCore(t, m, 0)
		m.dispatch(compute(20*sim.Millisecond), d)
		m.dispatch(compute(20*sim.Millisecond), d)
		balances = m.res.Counters.LoadBalances
	})
	eng.At(49*sim.Millisecond, func() {
		if m.res.Counters.LoadBalances == balances {
			t.Error("no balance pull by 49ms")
		}
	})

	// Hotplug: offline a busy core with a waiter (evacuating both), bring
	// it back later.
	var hot machine.CoreID
	eng.At(60*sim.Millisecond, func() {
		hot = idleCore(t, m, 1)
		m.dispatch(compute(10*sim.Millisecond), hot)
		m.dispatch(compute(10*sim.Millisecond), hot)
	})
	eng.At(60*sim.Millisecond+100*sim.Microsecond, func() {
		m.OfflineCore(hot)
		if idleBit(m, hot) || claimedBit(m, hot) {
			t.Errorf("offline core %d reads idle %v, claimed %v", hot, idleBit(m, hot), claimedBit(m, hot))
		}
	})
	eng.At(80*sim.Millisecond, func() {
		m.OnlineCore(hot)
		if !idleBit(m, hot) {
			t.Errorf("core %d back online but not idle", hot)
		}
	})

	m.Run(sim.Second)
	if anchor.State != proc.StateExited || blocker.State != proc.StateExited {
		t.Fatalf("anchor %v, blocker %v", anchor.State, blocker.State)
	}
	for s := 0; s < m.topo.NumSockets(); s++ {
		if n := running(s); n != 0 {
			t.Errorf("socket %d counts %d runnable tasks after the run", s, n)
		}
	}
	if n := check.Total(); n != 0 {
		t.Fatalf("%d invariant violations, first: %v", n, check.Violations()[0])
	}
	if check.Checks() == 0 {
		t.Fatal("checker never swept")
	}
}

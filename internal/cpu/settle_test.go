package cpu

import (
	"testing"

	"repro/internal/cfs"
	"repro/internal/governor"
	"repro/internal/invariant"
	"repro/internal/machine"
	"repro/internal/pelt"
	"repro/internal/proc"
	"repro/internal/sim"
)

// isSettled reports whether core c is in m's settled set.
func isSettled(m *Machine, c machine.CoreID) bool {
	in, _ := m.Settled(c)
	return in
}

// settledPair returns a settled core on socket s whose SMT sibling is
// settled too, or fails the test.
func settledPair(t *testing.T, m *Machine, s int) machine.CoreID {
	t.Helper()
	for _, c := range m.topo.SocketCores(s) {
		if isSettled(m, c) && isSettled(m, m.sibOf[c]) {
			return c
		}
	}
	t.Fatalf("t=%v: no settled core pair on socket %d", m.Now(), s)
	return -1
}

// TestSettledSetSurvivesEveryUnsettlingEvent drives each write that can
// give a settled core tick work again — a dispatch onto it, a
// balancePass pull onto it, its spin start, hotplug off and on, a socket
// throttle and its release, and a load spike — with the invariant
// checker on. Each event must take its core out of the set, and the
// settled_set and turbo_count rules must stay silent throughout.
func TestSettledSetSurvivesEveryUnsettlingEvent(t *testing.T) {
	spec := machine.IntelXeon5218()
	check := invariant.New()
	// Under performance an idle clock converges on nominal from the
	// machine minimum, so a throttle below nominal moves the idle floor.
	m := New(Config{Spec: spec, Gov: governor.Performance{}, Policy: cfs.Default(), Seed: 1, Check: check})
	anchor := m.Spawn("anchor", proc.Script(proc.Sleep{D: 400 * sim.Millisecond}))
	eng := m.Engine()
	compute := func(d sim.Duration) *proc.Task {
		return m.newTask("w", computeFor(spec, d), nil)
	}
	var home, away int // the anchor's socket and the other one

	eng.PostRun(120*sim.Millisecond, fn(func() {
		if m.SettledCount() == 0 {
			t.Fatal("no core settled by 120ms")
		}
		home = m.sockOf[anchor.Last]
		away = 1 - home
		a := settledPair(t, m, home)
		m.dispatch(compute(2*sim.Millisecond), a)
		if isSettled(m, a) {
			t.Errorf("dispatch left core %d settled", a)
		}
	}))

	// Two tasks on one core of the clean socket: the waiter is pulled by
	// the next tick's balancePass onto a settled core of the same die
	// (cross-die pulls wait two ticks).
	var before []bool
	var thief *proc.Task
	balances := int64(0)
	eng.PostRun(140*sim.Millisecond, fn(func() {
		b := settledPair(t, m, away)
		m.dispatch(compute(20*sim.Millisecond), b)
		thief = compute(20 * sim.Millisecond)
		m.dispatch(thief, b)
		balances = m.res.Counters.LoadBalances
	}))
	eng.PostRun(141*sim.Millisecond, fn(func() {
		before = make([]bool, len(m.cores))
		for i := range m.cores {
			before[i] = isSettled(m, machine.CoreID(i))
		}
	}))
	eng.PostRun(149*sim.Millisecond, fn(func() {
		if m.res.Counters.LoadBalances == balances {
			t.Fatal("no balancePass pull by 149ms")
		}
		if c := thief.Cur; c == proc.NoCore || !before[c] {
			t.Errorf("waiter pulled onto core %d, want a core settled before the pull", c)
		}
	}))

	eng.PostRun(160*sim.Millisecond, fn(func() {
		c := settledPair(t, m, home)
		m.startSpin(c, 2*sim.Millisecond, spinUtilSpeedShift)
		if isSettled(m, c) {
			t.Errorf("spin start left core %d settled", c)
		}
	}))

	var hot machine.CoreID
	eng.PostRun(180*sim.Millisecond, fn(func() {
		hot = settledPair(t, m, home)
		m.OfflineCore(hot)
		if isSettled(m, hot) {
			t.Errorf("OfflineCore left core %d settled", hot)
		}
	}))
	eng.PostRun(200*sim.Millisecond, fn(func() { m.OnlineCore(hot) }))

	eng.PostRun(220*sim.Millisecond, fn(func() {
		settledPair(t, m, away)
		m.ThrottleSocket(away, spec.Nominal-500)
		for _, c := range m.topo.SocketCores(away) {
			if isSettled(m, c) {
				t.Errorf("ThrottleSocket left core %d settled", c)
			}
		}
	}))
	eng.PostRun(240*sim.Millisecond, fn(func() {
		settledPair(t, m, away) // re-settled at the throttled floor
		m.ThrottleSocket(away, 0)
	}))

	eng.PostRun(300*sim.Millisecond, fn(func() {
		if !isSettled(m, hot) {
			t.Errorf("core %d did not settle again after coming back online", hot)
		}
	}))

	// CFS forks onto a long-idle core, here a settled one.
	eng.PostRun(320*sim.Millisecond, fn(func() {
		n := m.SettledCount()
		m.InjectLoad(2, sim.Millisecond)
		if m.SettledCount() >= n {
			t.Errorf("InjectLoad left the settled count at %d", n)
		}
	}))

	m.Run(sim.Second)
	if anchor.State != proc.StateExited {
		t.Fatalf("anchor ended in state %v", anchor.State)
	}
	if n := check.Total(); n != 0 {
		t.Fatalf("%d invariant violations, first: %v", n, check.Violations()[0])
	}
	if check.Checks() == 0 {
		t.Fatal("checker never swept")
	}
}

// TestActiveBarrierArmsNoCompletion: active-wait barrier parties spin
// without a completion event, so the engine's pending count stays flat
// across ticks. After the release every party proceeds, and its CPU
// time includes the spin.
func TestActiveBarrierArmsNoCompletion(t *testing.T) {
	spec := machine.IntelXeon5218()
	m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: cfs.Default(), Seed: 1})
	b := proc.NewBarrier("b", 4)
	b.ActiveWait = true
	after := proc.Cycles(sim.Millisecond, spec.Nominal)
	works := []sim.Duration{sim.Millisecond, 2 * sim.Millisecond, 3 * sim.Millisecond, 30 * sim.Millisecond}
	var tasks []*proc.Task
	for _, w := range works {
		tasks = append(tasks, m.Spawn("party", proc.Script(
			proc.Compute{Cycles: proc.Cycles(w, spec.Nominal)},
			proc.BarrierWait{B: b},
			proc.Compute{Cycles: after},
		)))
	}

	const probes = 5
	for k := 0; k < probes; k++ {
		at := sim.Time(6+5*k)*sim.Millisecond + sim.Microsecond
		m.Engine().PostRun(at, fn(func() {
			spinners := 0
			for i := range m.cores {
				cs := &m.cores[i]
				if cs.cur == nil || !cs.cur.YieldingSpin {
					continue
				}
				spinners++
				if cs.completion.Scheduled() {
					t.Errorf("t=%v: spinner %d on core %d has a completion armed", m.Now(), cs.cur.ID, i)
				}
			}
			if spinners != 3 {
				t.Errorf("t=%v: %d spinners, want 3", m.Now(), spinners)
			}
			// Pending: the tick, the last party's completion and the
			// probes still to come — nothing per spinner, at any tick.
			if got, want := m.Engine().Pending(), 2+probes-1-k; got != want {
				t.Errorf("t=%v: %d events pending, want %d", m.Now(), got, want)
			}
		}))
	}

	res := m.Run(sim.Second)
	if res.Custom["truncated"] != 0 {
		t.Fatal("run truncated")
	}
	for i, tk := range tasks[:len(tasks)-1] {
		if tk.State != proc.StateExited {
			t.Fatalf("party %d ended in state %v", i, tk.State)
		}
		// Each spinner waited over 25ms for the 30ms party; at no less
		// than the machine minimum, 10ms of that is a safe lower bound.
		own := proc.Cycles(works[i], spec.Nominal) + after
		if spin := proc.Cycles(10*sim.Millisecond, spec.Min); tk.CPUTime < own+spin {
			t.Errorf("party %d: CPU time %d cycles, want at least %d own + %d spin", i, tk.CPUTime, own, spin)
		}
	}
}

// TestRanCoreSettlesWhenIdle: a core that ran a task and then idles
// joins the settled set once both of its PELT signals have decayed to
// exactly 0 — within 33 half-lives of the utilisation signal — and not
// while its utilisation is still visible.
func TestRanCoreSettlesWhenIdle(t *testing.T) {
	spec := machine.IntelXeon5218()
	check := invariant.New()
	m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: cfs.Default(), Seed: 1, Check: check})
	m.Spawn("anchor", proc.Script(proc.Sleep{D: 2 * sim.Second}))
	worker := m.Spawn("worker", computeFor(spec, 40*sim.Millisecond))
	eng := m.Engine()
	var exited sim.Time
	var poll fn
	poll = func() {
		if worker.State == proc.StateExited {
			exited = m.Now()
			return
		}
		eng.PostRunAfter(sim.Millisecond, poll)
	}
	eng.PostRunAfter(sim.Millisecond, poll)
	var core machine.CoreID
	eng.PostRun(200*sim.Millisecond, fn(func() {
		if exited == 0 {
			t.Fatal("worker still running at 200ms")
		}
		core = worker.Last
		if isSettled(m, core) {
			t.Errorf("core %d settled %v after its task exited, with its load still visible", core, m.Now()-exited)
		}
	}))
	eng.PostRun(1500*sim.Millisecond, fn(func() {
		if idle := m.Now() - exited; idle < 33*pelt.HalfLife+sim.Tick {
			t.Fatalf("only %v idle; the check needs 33 half-lives", idle)
		}
		if !isSettled(m, core) {
			_, _, load := m.CoreLoad(core)
			t.Errorf("core %d not settled %v after its task exited (load %g)", core, m.Now()-exited, load)
		}
	}))
	m.Run(3 * sim.Second)
	if n := check.Total(); n != 0 {
		t.Fatalf("%d invariant violations, first: %v", n, check.Violations()[0])
	}
}

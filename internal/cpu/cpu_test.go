package cpu

import (
	"testing"

	"repro/internal/cfs"
	nest "repro/internal/core"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
)

// newMachine builds a test machine with the given policy on the 2-socket
// 6130 unless a spec is supplied.
func newMachine(t *testing.T, pol sched.Policy, gov governor.Governor, spec *machine.Spec) *Machine {
	t.Helper()
	if spec == nil {
		spec = machine.IntelXeon6130(2)
	}
	return New(Config{Spec: spec, Gov: gov, Policy: pol, Seed: 1})
}

// fn adapts a closure to sim.Runner so tests can post inline bodies.
type fn func()

func (f fn) RunAt(sim.Time) { f() }

// computeFor returns a behaviour that computes d at nominal and exits.
func computeFor(spec *machine.Spec, d sim.Duration) proc.Behavior {
	return proc.Script(proc.Compute{Cycles: proc.Cycles(d, spec.Nominal)})
}

func TestSingleTaskCompletes(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	m := newMachine(t, cfs.Default(), governor.Performance{}, spec)
	task := m.Spawn("worker", computeFor(spec, 100*sim.Millisecond))
	res := m.Run(10 * sim.Second)
	if task.State != proc.StateExited {
		t.Fatalf("task state = %v", task.State)
	}
	// Under performance the core runs at >= nominal, so 100ms of work at
	// nominal must take at most ~100ms (plus overheads), and at least
	// nominal/maxturbo of it.
	lo := sim.Duration(float64(100*sim.Millisecond) * float64(spec.Nominal) / float64(spec.MaxTurbo()) * 0.9)
	hi := 110 * sim.Millisecond
	if res.Runtime < lo || res.Runtime > hi {
		t.Fatalf("runtime = %v, want in [%v, %v]", res.Runtime, lo, hi)
	}
}

func TestTurboMakesSingleTaskFaster(t *testing.T) {
	// A single task on an otherwise idle machine should run near max
	// turbo under performance, well faster than nominal.
	spec := machine.IntelXeon5218()
	m := newMachine(t, cfs.Default(), governor.Performance{}, spec)
	m.Spawn("worker", computeFor(spec, 200*sim.Millisecond))
	res := m.Run(10 * sim.Second)
	// At 3.9GHz vs 2.3GHz nominal, 200ms of nominal work takes ~118ms.
	if res.Runtime > 150*sim.Millisecond {
		t.Fatalf("runtime = %v; single task did not benefit from turbo", res.Runtime)
	}
}

func TestForkJoinAllExit(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	m := newMachine(t, cfs.Default(), governor.Schedutil{}, spec)
	work := proc.Cycles(5*sim.Millisecond, spec.Nominal)
	root := func(t *proc.Task, r *sim.Rand) proc.Action { return proc.Exit{} }
	_ = root
	var actions []proc.Action
	for i := 0; i < 10; i++ {
		actions = append(actions, proc.Fork{Name: "child", Behavior: proc.Script(proc.Compute{Cycles: work})})
	}
	actions = append(actions, proc.WaitChildren{})
	m.Spawn("parent", proc.Script(actions...))
	res := m.Run(10 * sim.Second)
	if res.Custom["truncated"] != 0 {
		t.Fatal("run truncated: tasks did not all exit")
	}
	if res.Counters.Forks != 11 { // root + 10 children
		t.Fatalf("forks = %d, want 11", res.Counters.Forks)
	}
}

func TestChannelPingPong(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	m := newMachine(t, cfs.Default(), governor.Schedutil{}, spec)
	ch1 := proc.NewChan("ping", 1)
	ch2 := proc.NewChan("pong", 1)
	const rounds = 50
	small := proc.Cycles(20*sim.Microsecond, spec.Nominal)
	ping := proc.Loop(rounds, func(i int) []proc.Action {
		return []proc.Action{proc.Compute{Cycles: small}, proc.Send{Ch: ch1}, proc.Recv{Ch: ch2}}
	})
	pong := proc.Loop(rounds, func(i int) []proc.Action {
		return []proc.Action{proc.Recv{Ch: ch1}, proc.Compute{Cycles: small}, proc.Send{Ch: ch2}}
	})
	m.Spawn("ping", ping)
	m.Spawn("pong", pong)
	res := m.Run(10 * sim.Second)
	if res.Custom["truncated"] != 0 {
		t.Fatal("ping-pong deadlocked")
	}
	if res.Counters.Wakeups < rounds {
		t.Fatalf("wakeups = %d, want >= %d", res.Counters.Wakeups, rounds)
	}
}

// chanWaiter returns a behaviour that sleeps delay, performs a (a Send
// or Recv), records in *done the time the action completed and exits.
func chanWaiter(delay sim.Duration, a proc.Action, done *sim.Time) proc.Behavior {
	step := 0
	return func(t *proc.Task, r *sim.Rand) proc.Action {
		step++
		switch step {
		case 1:
			return proc.Sleep{D: delay}
		case 2:
			return a
		case 3:
			*done = t.Now
		}
		return proc.Exit{}
	}
}

// TestChannelWakesBlockedTasksInFIFOOrder blocks several receivers, then
// several senders, on one channel and checks that each side is woken in
// the order it blocked. The partner spaces its transfers 1 ms apart so
// the completion times order the wakeups.
func TestChannelWakesBlockedTasksInFIFOOrder(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	gap := proc.Compute{Cycles: proc.Cycles(sim.Millisecond, spec.Nominal)}
	const n = 4
	stagger := func(i int) sim.Duration { return sim.Duration(i) * 100 * sim.Microsecond }

	t.Run("receivers", func(t *testing.T) {
		m := newMachine(t, cfs.Default(), governor.Schedutil{}, spec)
		ch := proc.NewChan("rx", 1)
		var done [n]sim.Time
		for i := 0; i < n; i++ {
			m.Spawn("rx", chanWaiter(stagger(i), proc.Recv{Ch: ch}, &done[i]))
		}
		sender := []proc.Action{proc.Sleep{D: 10 * sim.Millisecond}}
		for i := 0; i < n; i++ {
			sender = append(sender, proc.Send{Ch: ch}, gap)
		}
		m.Spawn("tx", proc.Script(sender...))
		if res := m.Run(10 * sim.Second); res.Custom["truncated"] != 0 {
			t.Fatal("run truncated")
		}
		for i := 1; i < n; i++ {
			if !(done[i-1] < done[i]) {
				t.Fatalf("receivers completed at %v: receiver %d not after receiver %d", done, i, i-1)
			}
		}
		if ch.Receivers.Len() != 0 || ch.Queued != 0 {
			t.Fatalf("%d receivers and %d messages left", ch.Receivers.Len(), ch.Queued)
		}
	})

	t.Run("senders", func(t *testing.T) {
		m := newMachine(t, cfs.Default(), governor.Schedutil{}, spec)
		ch := proc.NewChan("tx", 1)
		var done [n]sim.Time
		for i := 0; i < n; i++ {
			// The first sender fills the channel; the rest block.
			m.Spawn("tx", chanWaiter(stagger(i), proc.Send{Ch: ch}, &done[i]))
		}
		receiver := []proc.Action{proc.Sleep{D: 10 * sim.Millisecond}}
		for i := 0; i < n; i++ {
			receiver = append(receiver, proc.Recv{Ch: ch}, gap)
		}
		m.Spawn("rx", proc.Script(receiver...))
		if res := m.Run(10 * sim.Second); res.Custom["truncated"] != 0 {
			t.Fatal("run truncated")
		}
		if done[0] >= 10*sim.Millisecond {
			t.Fatalf("first sender blocked (completed at %v)", done[0])
		}
		for i := 2; i < n; i++ {
			if !(done[i-1] < done[i]) {
				t.Fatalf("senders completed at %v: sender %d not after sender %d", done, i, i-1)
			}
		}
		if ch.Senders.Len() != 0 || ch.Queued != 0 {
			t.Fatalf("%d senders and %d messages left", ch.Senders.Len(), ch.Queued)
		}
	})
}

func TestBarrierSynchronises(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	m := newMachine(t, cfs.Default(), governor.Schedutil{}, spec)
	const n = 16
	b := proc.NewBarrier("b", n)
	work := proc.Cycles(2*sim.Millisecond, spec.Nominal)
	for i := 0; i < n; i++ {
		m.Spawn("w", proc.Loop(5, func(j int) []proc.Action {
			return []proc.Action{proc.Compute{Cycles: work}, proc.BarrierWait{B: b}}
		}))
	}
	res := m.Run(30 * sim.Second)
	if res.Custom["truncated"] != 0 {
		t.Fatal("barrier deadlocked")
	}
	if len(b.Waiting) != 0 {
		t.Fatalf("%d tasks left on barrier", len(b.Waiting))
	}
}

func TestSharedCoreFairness(t *testing.T) {
	// Two CPU hogs on a single-core machine must share roughly equally.
	spec := &machine.Spec{
		Topo: machine.New("uni", 1, 1, 1), Arch: "test",
		Min: 1000, Nominal: 2000, Turbo: []machine.FreqMHz{2000},
		IdleSocketW: 1, ActiveBaseW: 1, DynPerGHzW: 1, UncoreFreqW: 1,
	}
	m := newMachine(t, cfs.Default(), governor.Performance{}, spec)
	work := proc.Cycles(200*sim.Millisecond, spec.Nominal)
	a := m.Spawn("a", proc.Script(proc.Compute{Cycles: work}))
	bT := m.Spawn("b", proc.Script(proc.Compute{Cycles: work}))
	// Run until roughly half done; both should have progressed.
	m.Run(220 * sim.Millisecond)
	if a.CPUTime == 0 || bT.CPUTime == 0 {
		t.Fatalf("starvation: a=%d b=%d", a.CPUTime, bT.CPUTime)
	}
	ratio := float64(a.CPUTime) / float64(bT.CPUTime)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("unfair sharing: a=%d b=%d (ratio %.2f)", a.CPUTime, bT.CPUTime, ratio)
	}
	res := m.Run(0)
	if res.Counters.Preemptions == 0 {
		t.Fatal("no preemptions on an overloaded core")
	}
}

func TestWorkConservationEventually(t *testing.T) {
	// More tasks than one core: with many idle cores, CFS placement plus
	// idle balancing must spread them so nothing waits long.
	spec := machine.IntelXeon6130(2)
	m := newMachine(t, cfs.Default(), governor.Performance{}, spec)
	work := proc.Cycles(50*sim.Millisecond, spec.Nominal)
	var actions []proc.Action
	for i := 0; i < 32; i++ {
		actions = append(actions, proc.Fork{Name: "w", Behavior: proc.Script(proc.Compute{Cycles: work})})
	}
	actions = append(actions, proc.WaitChildren{})
	m.Spawn("parent", proc.Script(actions...))
	res := m.Run(5 * sim.Second)
	if res.Custom["truncated"] != 0 {
		t.Fatal("truncated")
	}
	// 32 tasks of 50ms on 64 cores: if each got its own core this takes
	// ~50-90ms (at >= nominal). Allow generous slack for fork serialism.
	if res.Runtime > 200*sim.Millisecond {
		t.Fatalf("runtime %v suggests tasks were stacked", res.Runtime)
	}
}

func TestNestSpinsAndCFSDoesNot(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	run := func(pol sched.Policy) *Machine {
		m := newMachine(t, pol, governor.Schedutil{}, spec)
		// A task that alternates compute and short sleeps keeps going
		// idle, triggering nest spinning.
		work := proc.Cycles(2*sim.Millisecond, spec.Nominal)
		m.Spawn("blinker", proc.Loop(100, func(i int) []proc.Action {
			return []proc.Action{proc.Compute{Cycles: work}, proc.Sleep{D: 2 * sim.Millisecond}}
		}))
		m.Run(30 * sim.Second)
		return m
	}
	mN := run(nest.Default())
	mC := run(cfs.Default())
	if mN.Result().Counters.SpinTicksTotal == 0 {
		t.Fatal("nest never spun")
	}
	if mC.Result().Counters.SpinTicksTotal != 0 {
		t.Fatal("cfs spun")
	}
}

func TestNestKeepsBlinkerFast(t *testing.T) {
	// The §5.2 phenomenon in miniature: a task that computes briefly and
	// sleeps briefly runs faster under Nest-schedutil than CFS-schedutil
	// because its core stays warm.
	spec := machine.IntelXeon5218()
	run := func(pol sched.Policy) sim.Time {
		m := newMachine(t, pol, governor.Schedutil{}, spec)
		// Sleeps span scheduler ticks, so the idle core's frequency
		// decays unless the nest keeps it warm by spinning.
		work := proc.Cycles(3*sim.Millisecond, spec.Nominal)
		m.Spawn("blinker", proc.Loop(200, func(i int) []proc.Action {
			return []proc.Action{proc.Compute{Cycles: work}, proc.Sleep{D: 3 * sim.Millisecond}}
		}))
		return m.Run(60 * sim.Second).Runtime
	}
	tNest := run(nest.Default())
	tCFS := run(cfs.Default())
	// The sleep time dilutes the gain for a single blinker; a few
	// percent is the expected single-task effect (the paper's larger
	// numbers come from many tasks compounding).
	if float64(tNest) > float64(tCFS)*0.97 {
		t.Fatalf("nest %v not faster than cfs %v", tNest, tCFS)
	}
}

func TestUnderloadLowerUnderNest(t *testing.T) {
	// Sequential short-lived forks (the configure pattern): CFS disperses
	// them over cold cores (underload), Nest reuses a couple of cores.
	spec := machine.IntelXeon5218()
	run := func(pol sched.Policy) *Machine {
		m := newMachine(t, pol, governor.Schedutil{}, spec)
		// Short-lived commands, several per tick, as configure scripts do.
		work := proc.Cycles(800*sim.Microsecond, spec.Nominal)
		m.Spawn("script", proc.Loop(400, func(i int) []proc.Action {
			return []proc.Action{
				proc.Fork{Name: "cmd", Behavior: proc.Script(proc.Compute{Cycles: work})},
				proc.WaitChildren{},
			}
		}))
		m.Run(60 * sim.Second)
		return m
	}
	mN := run(nest.Default())
	mC := run(cfs.Default())
	un, uc := mN.Result().UnderloadPerSec, mC.Result().UnderloadPerSec
	if un >= uc {
		t.Fatalf("nest underload/s %.2f not below cfs %.2f", un, uc)
	}
	if mN.Result().Runtime >= mC.Result().Runtime {
		t.Fatalf("nest runtime %v not below cfs %v", mN.Result().Runtime, mC.Result().Runtime)
	}
}

func TestEnergyAccumulates(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	m := newMachine(t, cfs.Default(), governor.Performance{}, spec)
	m.Spawn("w", computeFor(spec, 100*sim.Millisecond))
	res := m.Run(5 * sim.Second)
	if res.EnergyJ <= 0 {
		t.Fatal("no energy recorded")
	}
	// Sanity: a 2-socket server for ~0.1s should be within 1-100 J.
	if res.EnergyJ > 100 {
		t.Fatalf("energy %v J implausible", res.EnergyJ)
	}
}

func TestFreqHistogramCoversRuntime(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	m := newMachine(t, cfs.Default(), governor.Performance{}, spec)
	m.Spawn("w", computeFor(spec, 50*sim.Millisecond))
	res := m.Run(5 * sim.Second)
	total := sim.Duration(res.FreqHist.Total())
	// One busy core for most of the run: histogram time should be close
	// to the runtime.
	if total < res.Runtime/2 || total > res.Runtime*2 {
		t.Fatalf("hist total %v vs runtime %v", total, res.Runtime)
	}
}

func TestTraceCapturesActivity(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	tr := obs.NewTrace(0, sim.Second)
	m := New(Config{Spec: spec, Gov: governor.Performance{}, Policy: cfs.Default(), Seed: 1,
		Obs: obs.New(tr), SampleEvery: sim.Tick})
	m.Spawn("w", computeFor(spec, 50*sim.Millisecond))
	m.Run(5 * sim.Second)
	if len(tr.Points) == 0 {
		t.Fatal("trace empty")
	}
}

func TestDeterminism(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	run := func() (sim.Time, float64, int64) {
		m := newMachine(t, nest.Default(), governor.Schedutil{}, spec)
		work := proc.Cycles(3*sim.Millisecond, spec.Nominal)
		m.Spawn("script", proc.Loop(50, func(i int) []proc.Action {
			return []proc.Action{
				proc.Fork{Name: "cmd", Behavior: proc.Script(proc.Compute{Cycles: work}, proc.Sleep{D: sim.Millisecond})},
				proc.WaitChildren{},
			}
		}))
		res := m.Run(30 * sim.Second)
		return res.Runtime, res.EnergyJ, res.Counters.CtxSwitches
	}
	r1, e1, c1 := run()
	r2, e2, c2 := run()
	if r1 != r2 || e1 != e2 || c1 != c2 {
		t.Fatalf("non-deterministic: (%v,%v,%d) vs (%v,%v,%d)", r1, e1, c1, r2, e2, c2)
	}
}

func TestWakeLatencyRecorded(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	m := newMachine(t, cfs.Default(), governor.Schedutil{}, spec)
	work := proc.Cycles(sim.Millisecond, spec.Nominal)
	m.Spawn("sleeper", proc.Loop(20, func(i int) []proc.Action {
		return []proc.Action{proc.Compute{Cycles: work}, proc.Sleep{D: sim.Millisecond}}
	}))
	res := m.Run(10 * sim.Second)
	if res.WakeLatency.Count() == 0 {
		t.Fatal("no wake latencies recorded")
	}
	if res.WakeLatency.Percentile(99) > sim.Millisecond {
		t.Fatalf("p99 wake latency %v implausibly high on an idle machine", res.WakeLatency.Percentile(99))
	}
}

// sliceLog keeps copies of the execution slices a run emits.
type sliceLog []obs.ExecSlice

func (l *sliceLog) Record(ev obs.Event) {
	if s, ok := ev.(*obs.ExecSlice); ok {
		*l = append(*l, *s)
	}
}

func TestTimelineRecording(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	var slices sliceLog
	m := New(Config{Spec: spec, Gov: governor.Performance{}, Policy: cfs.Default(), Seed: 1, Obs: obs.New(&slices)})
	task := m.Spawn("w", proc.Script(
		proc.Compute{Cycles: proc.Cycles(5*sim.Millisecond, spec.Nominal)},
		proc.Sleep{D: sim.Millisecond},
		proc.Compute{Cycles: proc.Cycles(5*sim.Millisecond, spec.Nominal)},
	))
	m.Run(sim.Second)
	// Two execution slices: before and after the sleep.
	if len(slices) != 2 {
		t.Fatalf("slices = %d, want 2", len(slices))
	}
	for _, s := range slices {
		if s.End <= s.T {
			t.Fatalf("empty slice recorded: %+v", s)
		}
		if s.Task != int(task.ID) || s.TaskName != "w" || s.FreqMHz <= 0 {
			t.Fatalf("slice = %+v, want task %d named w at a positive frequency", s, task.ID)
		}
	}
	if slices[1].T-slices[0].End < sim.Millisecond {
		t.Fatalf("slices %+v do not straddle the 1 ms sleep", slices)
	}
}

func TestExecReplacesTask(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	m := newMachine(t, cfs.Default(), governor.Schedutil{}, spec)
	work := proc.Cycles(2*sim.Millisecond, spec.Nominal)
	task := m.Spawn("sh", proc.Script(
		proc.Compute{Cycles: work},
		proc.Exec{},
		proc.Compute{Cycles: work},
	))
	res := m.Run(sim.Second)
	if res.Custom["truncated"] != 0 {
		t.Fatal("exec run truncated")
	}
	if task.State != proc.StateExited {
		t.Fatalf("state = %v", task.State)
	}
	// Exec goes through the fork-placement counter.
	if res.Counters.Forks < 2 {
		t.Fatalf("forks = %d, want >= 2 (spawn + exec)", res.Counters.Forks)
	}
}

func TestDeepIdleExitLatency(t *testing.T) {
	// The task wakes from its sleep onto its previous core. After a
	// 20 ms sleep that core sits in a deep C-state and the task starts
	// placementLatency+deepIdleExit after the wake; after 1 ms it is
	// still shallow and only the placement latency applies.
	spec := machine.IntelXeon6130(2)
	work := proc.Cycles(500*sim.Microsecond, spec.Nominal)
	for _, tc := range []struct {
		sleep, delay sim.Duration
	}{
		{20 * sim.Millisecond, placementLatency + deepIdleExit},
		{sim.Millisecond, placementLatency},
	} {
		var slices sliceLog
		m := New(Config{
			Spec: spec, Gov: governor.Performance{}, Policy: cfs.Default(),
			Seed: 1, Obs: obs.New(&slices),
		})
		m.Spawn("w", proc.Script(
			proc.Compute{Cycles: work},
			proc.Sleep{D: tc.sleep},
			proc.Compute{Cycles: work},
		))
		m.Run(sim.Second)
		if len(slices) != 2 {
			t.Fatalf("sleep %v: slices = %d, want 2", tc.sleep, len(slices))
		}
		wake := slices[0].End + tc.sleep
		if got := slices[1].T - wake; got != tc.delay {
			t.Fatalf("sleep %v: second slice starts %v after the wake, want %v", tc.sleep, got, tc.delay)
		}
	}
}

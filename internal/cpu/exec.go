package cpu

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sim"
)

// Scheduler code-path overheads, in the range measured on real servers.
// The hackbench result (§5.6) — where Nest's longer core-selection path
// and the instruction-cache misses of stacking many tasks on few cores
// cause a slowdown — flows entirely from these (with perCoreSearch).
const (
	// placementLatency is the select-to-enqueue delay during which the
	// destination's placement flag protects against collisions.
	placementLatency = 1500 * sim.Nanosecond
	// ctxSwitch is the warm context-switch cost.
	ctxSwitch = 1200 * sim.Nanosecond
	// coldSwitch is the extra cost when the incoming task's working set
	// is no longer in the instruction cache.
	coldSwitch = 3500 * sim.Nanosecond
	// forkCost is charged to the parent for each fork.
	forkCost = 25 * sim.Microsecond
	// migrationCost is charged to a task scheduled in on a different
	// core than its last one.
	migrationCost = 2 * sim.Microsecond
)

// takePendingSearch collects the cost the policy charged during the last
// core selection.
func (m *Machine) takePendingSearch() sim.Duration {
	c := m.pendingSearch
	m.pendingSearch = 0
	return c
}

// chargeCycles adds overhead work to a task. Overheads are fixed
// instruction counts, expressed as time at the nominal frequency, so a
// core running at the machine minimum takes proportionally longer to get
// through kernel code — the effect that stretches fork storms out on the
// slow-ramping E7-8870 v4.
func (m *Machine) chargeCycles(t *proc.Task, on machine.CoreID, d sim.Duration) {
	if d <= 0 {
		return
	}
	t.Remaining += proc.Cycles(d, m.spec.Nominal)
}

// placeFork runs the policy's fork placement and schedules the child's
// enqueue. The parent (when running) pays the fork and search cost.
func (m *Machine) placeFork(parent *proc.Task, parentCore machine.CoreID, child *proc.Task) {
	target := m.policy.SelectCoreFork(m, parent, child, parentCore)
	cost := m.takePendingSearch()
	m.res.Counters.Forks++
	if parent != nil {
		m.chargeCycles(parent, parentCore, cost+forkCost)
	}
	m.dispatch(child, target)
}

// placeWakeup runs the policy's wakeup placement and schedules the
// enqueue. It returns the search cost so callers can charge the waker.
func (m *Machine) placeWakeup(t *proc.Task, wakerCore machine.CoreID, sync bool) sim.Duration {
	target := m.policy.SelectCoreWakeup(m, t, wakerCore, sync)
	cost := m.takePendingSearch()
	m.res.Counters.Wakeups++
	m.dispatch(t, target)
	return cost
}

// deepIdleAfter is how long a core idles before entering a deep C-state;
// deepIdleExit is the wake latency it then pays before the placed task
// starts. The fork path's "expected time to wake from idle states"
// consideration (§2.1) keys off this.
const (
	deepIdleAfter = 5 * sim.Millisecond
	deepIdleExit  = 60 * sim.Microsecond
)

// dispatch claims the target core and enqueues the task after the
// placement latency — the window in which a concurrent placement to the
// same core is a collision.
func (m *Machine) dispatch(t *proc.Task, target machine.CoreID) {
	cs := &m.cores[target]
	if cs.claimed {
		m.res.Counters.Collisions++
	}
	m.touch(target)
	cs.claimed = true
	delay := placementLatency
	// A core in a deep C-state pays its exit latency before the task
	// can start (spinning cores never enter one — part of the point of
	// keeping the nest warm).
	if cs.cur == nil && cs.spinUntil <= m.eng.Now() &&
		m.eng.Now()-cs.idleSince >= deepIdleAfter {
		delay += deepIdleExit
	}
	if m.inFlight != nil {
		m.inFlight[t.ID]++
	}
	r := m.rec(evEnqueue)
	r.task = t
	r.core = target
	m.eng.PostRunAfter(delay, r)
}

// enqueue adds t to target's run queue and starts it if the core is idle.
func (m *Machine) enqueue(t *proc.Task, target machine.CoreID) {
	now := m.eng.Now()
	cs := &m.cores[target]
	m.touch(target)
	cs.claimed = false
	// A placement can race a hotplug fault: the target went offline while
	// this enqueue was in flight. Redirect to the nearest online core —
	// bypassing the policy, which already dropped the dead core, so
	// progress is guaranteed.
	if cs.offline {
		m.obs.Count("cpu.offline_redirect", 1)
		m.enqueue(t, m.nearestOnline(target))
		return
	}
	t.State = proc.StateRunnable
	t.Cur = target
	t.LastWoken = now
	t.EnqueuedAt = now
	cs.queue = append(cs.queue, t)
	m.queuedTasks++
	m.curRunnable++
	if m.curRunnable > m.maxRunnable {
		m.maxRunnable = m.curRunnable
	}
	if cs.cur == nil {
		if cs.spinUntil > now {
			cs.spinUntil = now // a task arrived; stop warming
		}
		m.scheduleIn(target)
	} else if cs.cur.YieldingSpin {
		m.yieldIfContended(target)
	}
}

// scheduleIn picks the lowest-vruntime queued task and runs it on c.
func (m *Machine) scheduleIn(c machine.CoreID) {
	now := m.eng.Now()
	cs := &m.cores[c]
	if cs.cur != nil {
		panic("cpu: scheduleIn on busy core")
	}
	if len(cs.queue) == 0 {
		panic("cpu: scheduleIn with empty queue")
	}
	best := 0
	for i := 1; i < len(cs.queue); i++ {
		if cs.queue[i].VRuntime < cs.queue[best].VRuntime {
			best = i
		}
	}
	t := cs.queue[best]
	m.touch(c)
	cs.queue = append(cs.queue[:best], cs.queue[best+1:]...)
	m.queuedTasks--

	// Book the sibling's progress at its pre-contention rate before this
	// thread starts competing for the shared pipeline.
	if sib := m.sibOf[c]; sib != c && m.cores[sib].cur != nil {
		m.accountProgress(sib)
	}

	cs.cur = t
	cs.curStart = now
	cs.progressMark = now
	cs.usedInInterval = true
	t.State = proc.StateRunning
	t.Cur = c

	// Context-switch accounting, with the instruction-cache model: a task
	// outside the core's recent-task ring pays the cold penalty.
	m.res.Counters.CtxSwitches++
	switchCost := ctxSwitch
	if !cs.icacheHas(t.ID) {
		switchCost += coldSwitch
		m.res.Counters.ColdSwitches++
	}
	cs.icachePush(t.ID)
	if t.Last != proc.NoCore && t.Last != c {
		m.res.Counters.Migrations++
		switchCost += migrationCost
		if h := m.obs; h.Enabled() {
			h.Emit(obs.Migration{
				T: now, Task: int(t.ID), TaskName: t.Name,
				From: int(t.Last), To: int(c), Reason: "schedule_in",
			})
		}
	}
	m.chargeCycles(t, c, switchCost)

	if t.LastWoken >= 0 {
		m.res.WakeLatency.Add(now - t.LastWoken)
		t.LastWoken = -1
	}

	// Execution-core history (§3.3) and policy notification.
	t.RecordExecution(c)
	m.policy.ScheduledIn(m, t, c)

	// The task's utilisation follows it onto the core, as PELT load does.
	if tv := t.Util.Value(now); tv > cs.util.Value(now) {
		cs.util.Reset(now, tv)
	}
	cs.util.SetLevel(now, 1)
	cs.hwUtil.SetLevel(now, 1)
	t.Util.SetRunning(now, true)

	// The hardware notices the core going active well before the next
	// tick and ramps part-way toward the granted frequency.
	cs.lastActive = now
	req := m.gov.Request(m.spec, cs.util.Value(now), true)
	m.fm.Boost(c, req, m.activePhysOnSocket(m.sockOf[c], now), cs.hwUtil.Value(now))

	// A running task appearing on this hardware thread stops the
	// sibling's idle spin (§3.2) and slows the sibling's execution (SMT
	// pipeline sharing), so its completion must be re-armed.
	sib := m.sibOf[c]
	if sib != c {
		ss := &m.cores[sib]
		if ss.cur == nil && ss.spinUntil > now {
			m.touch(sib)
			ss.spinUntil = now
			ss.util.SetLevel(now, 0)
			ss.hwUtil.SetLevel(now, 0)
		}
		if ss.cur != nil {
			m.scheduleCompletion(sib)
		}
	}

	m.advance(t, c)
}

// smtFactor is each hardware thread's throughput, as a fraction of the
// clock, when its sibling is also busy (§5.5).
const smtFactor = 0.62

// effMHz returns c's effective execution rate: the core frequency,
// derated when the hyperthread sibling is also executing (the two
// hardware threads share one physical core's pipeline).
func (m *Machine) effMHz(c machine.CoreID) machine.FreqMHz {
	f := m.fm.Cur(c)
	sib := m.sibOf[c]
	if sib != c && m.cores[sib].cur != nil {
		f = machine.FreqMHz(float64(f) * smtFactor)
	}
	return f
}

// accountProgress books the work done by c's current task since the last
// mark at the frequency that was in effect, updating the frequency
// histogram and vruntime.
func (m *Machine) accountProgress(c machine.CoreID) {
	cs := &m.cores[c]
	now := m.eng.Now()
	if cs.cur == nil || cs.progressMark >= now {
		return
	}
	elapsed := now - cs.progressMark
	f := m.effMHz(c)
	done := proc.Cycles(elapsed, f)
	t := cs.cur
	if done > t.Remaining {
		done = t.Remaining
	}
	t.Remaining -= done
	t.CPUTime += done
	t.VRuntime += int64(elapsed)
	cs.progressMark = now
	// The histogram records the core's clock (what turbostat shows), not
	// the SMT-derated throughput.
	m.res.FreqHist.Add(m.fm.Cur(c), elapsed)
}

// scheduleCompletion (re)arms the completion event for c's current task
// at the core's present frequency. A barrier spinner's completion would
// never fire — its spinWaitCycles outlast any run, and the release
// zeroes them — so a spinner gets none, and any armed one is cancelled.
func (m *Machine) scheduleCompletion(c machine.CoreID) {
	cs := &m.cores[c]
	t := cs.cur
	if t == nil {
		return
	}
	if t.YieldingSpin {
		m.eng.Cancel(&cs.completion)
		return
	}
	d := proc.TimeFor(t.Remaining, m.effMHz(c))
	m.eng.ArmAfter(&cs.completion, d, &cs.comp)
}

func (m *Machine) onComplete(c machine.CoreID) {
	cs := &m.cores[c]
	t := cs.cur
	if t == nil {
		return
	}
	m.accountProgress(c)
	// Rounding can leave a cycle or two; completion means done.
	t.Remaining = 0
	m.advance(t, c)
}

// advance interprets t's behaviour until it blocks, computes or exits.
func (m *Machine) advance(t *proc.Task, c machine.CoreID) {
	for {
		if t.Remaining > 0 {
			m.scheduleCompletion(c)
			return
		}
		var a proc.Action = proc.Exit{}
		if t.Behavior != nil {
			t.Now = m.eng.Now()
			a = t.Behavior(t, m.rng)
		}
		// The pointer arms are a behaviour's owned Compute, Sleep and
		// Fork (see proc.Action): each is read here, once, before the
		// behaviour runs again.
		switch act := a.(type) {
		case proc.Compute:
			addWork(t, act.Cycles)
		case *proc.Compute:
			addWork(t, act.Cycles)
		case proc.Sleep:
			m.sleep(t, c, act.D)
			return
		case *proc.Sleep:
			m.sleep(t, c, act.D)
			return
		case proc.Fork:
			m.fork(t, c, act.Name, act.Behavior)
		case *proc.Fork:
			m.fork(t, c, act.Name, act.Behavior)
		case proc.Exec:
			// sched_exec: the task re-runs core selection at its cheapest
			// migration point and may move (§2.1 lists exec among CFS's
			// placement hooks).
			m.taskLeaves(t, c, proc.StateRunnable)
			target := m.policy.SelectCoreFork(m, t, t, c)
			m.chargeCycles(t, c, m.takePendingSearch())
			m.res.Counters.Forks++
			m.dispatch(t, target)
			return
		case proc.WaitChildren:
			if t.LiveChildren > 0 {
				m.setWaitingChildren(t)
				m.taskLeaves(t, c, proc.StateBlocked)
				return
			}
		case proc.BarrierWait:
			if m.barrierArrive(act.B, t, c) {
				return
			}
		case proc.Send:
			if m.chanSend(act.Ch, t, c) {
				return
			}
		case proc.Recv:
			if m.chanRecv(act.Ch, t, c) {
				return
			}
		case proc.Exit:
			m.exit(t, c)
			return
		default:
			panic(fmt.Sprintf("cpu: unknown action %T", a))
		}
	}
}

// fork starts a child of t running b; the parent continues (the fork
// cost is charged as cycles).
func (m *Machine) fork(t *proc.Task, c machine.CoreID, name string, b proc.Behavior) {
	child := m.newTask(name, b, t)
	t.LiveChildren++
	m.placeFork(t, c, child)
}

// addWork queues a Compute's cycles on t.
func addWork(t *proc.Task, cycles int64) {
	if cycles > 0 {
		t.Remaining += cycles
	}
}

// sleep takes t off c until a timer wakes it d from now.
func (m *Machine) sleep(t *proc.Task, c machine.CoreID, d sim.Duration) {
	m.taskLeaves(t, c, proc.StateSleeping)
	if d < 0 {
		d = 0
	}
	r := m.rec(evTimerWake)
	r.task = t
	m.eng.PostRunAfter(d, r)
}

// setWaitingChildren marks t as blocked on child exits.
func (m *Machine) setWaitingChildren(t *proc.Task) { t.SetWaitingKids(true) }

// taskLeaves removes c's current task (which must be t) for a sleep or
// block.
func (m *Machine) taskLeaves(t *proc.Task, c machine.CoreID, st proc.State) {
	now := m.eng.Now()
	cs := &m.cores[c]
	if cs.cur != t {
		panic("cpu: taskLeaves for non-current task")
	}
	m.accountProgress(c)
	m.recordSlice(t, c, cs.curStart, now)
	t.LastRan = now
	if sib := m.sibOf[c]; sib != c && m.cores[sib].cur != nil {
		m.accountProgress(sib) // at the contended rate, before c frees up
	}
	m.eng.Cancel(&cs.completion)
	m.touch(c)
	cs.cur = nil
	t.State = st
	t.Cur = proc.NoCore
	t.Util.SetRunning(now, false)
	m.curRunnable--
	m.policy.Blocked(m, t, c)
	m.siblingSpeedChange(c)
	m.pickNext(c)
}

// exit terminates t on c, waking a parent blocked in WaitChildren.
func (m *Machine) exit(t *proc.Task, c machine.CoreID) {
	now := m.eng.Now()
	cs := &m.cores[c]
	if cs.cur != t {
		panic("cpu: exit for non-current task")
	}
	m.accountProgress(c)
	m.recordSlice(t, c, cs.curStart, now)
	t.LastRan = now
	if sib := m.sibOf[c]; sib != c && m.cores[sib].cur != nil {
		m.accountProgress(sib) // at the contended rate, before c frees up
	}
	m.eng.Cancel(&cs.completion)
	m.touch(c)
	cs.cur = nil
	t.State = proc.StateExited
	t.Cur = proc.NoCore
	t.Finished = now
	t.Util.SetRunning(now, false)
	// A dead task's load contribution detaches from the run queue at
	// exit; only partial residue remains. This bounds how long CFS's
	// fork path shuns a core last used by a short-lived command — the
	// size of the Figure 2(a) dispersal ring.
	cs.util.Reset(now, cs.util.Value(now)*0.35)
	m.curRunnable--
	m.liveTasks--
	m.finishAt = now

	m.siblingSpeedChange(c)
	coreIdle := len(cs.queue) == 0
	m.policy.Exited(m, t, c, coreIdle)
	if m.onExit != nil {
		m.onExit(t)
	}

	if p := t.Parent; p != nil {
		p.LiveChildren--
		if p.WaitingKids() && p.LiveChildren == 0 {
			p.SetWaitingKids(false)
			// The exiting child's core performs the wakeup; the handoff
			// is synchronous in spirit (the child is gone).
			m.placeWakeup(p, c, true)
		}
	}
	m.pickNext(c)
}

// recordSlice emits the execution slice t just ended on c through the
// obs hub. It stays small enough to inline into its four call sites,
// so an unobserved run pays a nil check per slice, not a call.
func (m *Machine) recordSlice(t *proc.Task, c machine.CoreID, start, end sim.Time) {
	if m.obs != nil && end > start {
		m.emitSlice(t, c, start, end)
	}
}

// emitSlice sends the slice as a pointer to m.slice, so an observed run
// allocates nothing per slice.
func (m *Machine) emitSlice(t *proc.Task, c machine.CoreID, start, end sim.Time) {
	if h := m.obs; h.Enabled() {
		m.slice = obs.ExecSlice{
			T: start, End: end, Core: int(c),
			Task: int(t.ID), TaskName: t.Name, FreqMHz: int(m.fm.Cur(c)),
		}
		h.Emit(&m.slice)
	}
}

// siblingSpeedChange re-arms the hyperthread sibling's completion after
// this thread's busy state changed (its progress up to now was already
// booked at the old rate by the caller).
func (m *Machine) siblingSpeedChange(c machine.CoreID) {
	sib := m.sibOf[c]
	if sib == c {
		return
	}
	if m.cores[sib].cur != nil {
		m.scheduleCompletion(sib)
	}
}

// spinUtilSpeedShift / spinUtilSpeedStep are the activity levels the
// hardware credits an idle-spinning core with. On Speed Shift parts the
// spin keeps the core looking fully busy; the Broadwell estimator
// discounts it — §5.3: "Even Nest's spinning is not sufficient to defeat
// this tendency" on the E7-8870 v4.
const (
	spinUtilSpeedShift = 1.0
	spinUtilSpeedStep  = 0.35
)

// pickNext runs the next queued task on c or sends the core idle, with
// the policy deciding how long the idle loop spins to keep the core warm.
func (m *Machine) pickNext(c machine.CoreID) {
	now := m.eng.Now()
	cs := &m.cores[c]
	if len(cs.queue) > 0 {
		m.scheduleIn(c)
		return
	}
	// newidle balance: a core entering idle immediately tries to pull a
	// waiting task from its own die, as CFS does on idle entry (cross-die
	// pulls are left to the damped periodic balance). This keeps
	// saturating workloads work-conserving under every policy.
	if victim := m.findBusiestOnDie(c); victim >= 0 {
		vs := &m.cores[victim]
		if t, idx := m.coldestWaiter(vs); t != nil {
			m.touch(victim)
			vs.queue = append(vs.queue[:idx], vs.queue[idx+1:]...)
			m.queuedTasks--
			m.curRunnable--
			m.res.Counters.LoadBalances++
			if h := m.obs; h.Enabled() {
				h.Emit(obs.TickBalance{
					T: now, From: int(victim), To: int(c),
					Task: int(t.ID), TaskName: t.Name, Kind2: "newidle",
				})
			}
			m.enqueue(t, c)
			return
		}
	}
	cs.idleSince = now
	if d := m.policy.IdleSpin(m, c); d > 0 {
		lv := spinUtilSpeedShift
		if m.spec.Ramp == machine.SpeedStep {
			lv = spinUtilSpeedStep
		}
		// The hardware cannot tell the spin loop from real work (on
		// SpeedStep its estimator discounts it; same level used).
		m.startSpin(c, d, lv)
	} else {
		cs.util.SetLevel(now, 0)
		cs.hwUtil.SetLevel(now, 0)
	}
}

// startSpin puts an idle core into a busy-looking spin for up to d.
func (m *Machine) startSpin(c machine.CoreID, d sim.Duration, level float64) {
	now := m.eng.Now()
	cs := &m.cores[c]
	m.touch(c)
	cs.spinUntil = now + d
	cs.util.SetLevel(now, level)
	cs.hwUtil.SetLevel(now, level)
	r := m.rec(evSpinExpire)
	r.core = c
	r.until = cs.spinUntil
	m.eng.PostRunAfter(d, r)
}

// timerWake handles a Sleep expiry: the timer fires on the core the task
// last ran on, which then performs the wakeup.
func (m *Machine) timerWake(t *proc.Task) {
	if t.State != proc.StateSleeping {
		return
	}
	waker := t.Last
	if waker == proc.NoCore {
		waker = m.bootCore
	}
	m.placeWakeup(t, waker, false)
}

// wakeBlocked wakes a task blocked on a channel or barrier; the waker's
// core performs and pays for the placement.
func (m *Machine) wakeBlocked(t *proc.Task, wakerTask *proc.Task, wakerCore machine.CoreID, sync bool) {
	cost := m.placeWakeup(t, wakerCore, sync)
	if wakerTask != nil {
		m.chargeCycles(wakerTask, wakerCore, cost)
	}
}

// wakeIssueGap is the serialisation between successive wakeups issued by
// one core: the waker's try_to_wake_up path completes each enqueue before
// starting the next, so a storm's later placements see the earlier ones.
const wakeIssueGap = 2 * sim.Microsecond

// spinWaitCycles is the "work" an active waiter burns: effectively
// unbounded; the barrier release zeroes it.
const spinWaitCycles = int64(1) << 50

// barrierArrive processes a BarrierWait. It returns true if the caller
// should stop interpreting the task (blocked or busy-waiting in place).
func (m *Machine) barrierArrive(b *proc.Barrier, t *proc.Task, c machine.CoreID) bool {
	if len(b.Waiting)+1 >= b.Parties {
		waiters := b.Waiting
		if b.ActiveWait {
			// Active waiters are running threads: the release is a
			// single memory write they all notice within a moment; no
			// scheduler wakeups happen at all. This is why the NAS
			// kernels are almost entirely insensitive to placement
			// policy.
			for _, w := range waiters {
				r := m.rec(evSpinRelease)
				r.task = w
				m.eng.PostRunAfter(200*sim.Nanosecond, r)
			}
		} else {
			// Futex-style barrier: release everyone, one wakeup at a
			// time, paying for the storm on the waker's core.
			for i, w := range waiters {
				r := m.rec(evBarrierWake)
				r.task = w
				r.core = c
				m.eng.PostRunAfter(sim.Duration(i)*wakeIssueGap, r)
			}
			m.chargeCycles(t, c, sim.Duration(len(waiters))*wakeIssueGap)
		}
		// The wake records carry the tasks now; the next round reuses
		// the slice.
		clear(waiters)
		b.Waiting = waiters[:0]
		return false
	}
	b.Waiting = append(b.Waiting, t)
	if b.ActiveWait {
		// Busy-wait in place: the task keeps running (and keeps its
		// core hot and occupied) until released — but yields to queued
		// work, exactly like an OMP_WAIT_POLICY=active spinner calling
		// sched_yield in its loop.
		t.Remaining = spinWaitCycles
		t.YieldingSpin = true
		m.scheduleCompletion(c)
		m.yieldIfContended(c)
		return true
	}
	m.taskLeaves(t, c, proc.StateBlocked)
	return true
}

// releaseSpinner ends a task's barrier busy-wait: if it is running, it
// proceeds immediately on its own core; if it was preempted meanwhile,
// it proceeds when next scheduled.
func (m *Machine) releaseSpinner(w *proc.Task) {
	w.YieldingSpin = false
	switch w.State {
	case proc.StateRunning:
		c := w.Cur
		m.accountProgress(c)
		w.Remaining = 0
		m.advance(w, c)
	case proc.StateRunnable:
		w.Remaining = 0
	}
}

// yieldIfContended hands c over to a queued task when the current one is
// a yielding spinner.
func (m *Machine) yieldIfContended(c machine.CoreID) {
	cs := &m.cores[c]
	t := cs.cur
	if t == nil || !t.YieldingSpin || len(cs.queue) == 0 {
		return
	}
	now := m.eng.Now()
	m.accountProgress(c)
	m.eng.Cancel(&cs.completion)
	m.touch(c)
	cs.cur = nil
	t.State = proc.StateRunnable
	t.LastWoken = -1
	t.EnqueuedAt = now
	t.LastRan = now
	t.Util.SetRunning(now, false)
	cs.queue = append(cs.queue, t)
	m.queuedTasks++
	m.scheduleIn(c)
}

// chanSend processes a Send. It returns true if t blocked.
func (m *Machine) chanSend(ch *proc.Chan, t *proc.Task, c machine.CoreID) bool {
	if ch.Queued >= ch.Capacity {
		ch.Senders.Push(t)
		m.taskLeaves(t, c, proc.StateBlocked)
		return true
	}
	ch.Queued++
	if ch.Queued > ch.HighWater {
		ch.HighWater = ch.Queued
	}
	if ch.Receivers.Len() > 0 {
		ch.Queued--
		m.wakeBlocked(ch.Receivers.Pop(), t, c, true)
	}
	return false
}

// chanRecv processes a Recv. It returns true if t blocked.
func (m *Machine) chanRecv(ch *proc.Chan, t *proc.Task, c machine.CoreID) bool {
	if ch.Queued == 0 {
		ch.Receivers.Push(t)
		m.taskLeaves(t, c, proc.StateBlocked)
		return true
	}
	ch.Queued--
	if ch.Senders.Len() > 0 {
		ch.Queued++
		m.wakeBlocked(ch.Senders.Pop(), t, c, true)
	}
	return false
}

// icacheHas reports whether id is in the core's recent-task ring.
func (cs *coreState) icacheHas(id proc.TaskID) bool {
	for i := 0; i < cs.icacheLen; i++ {
		if cs.icache[i] == id {
			return true
		}
	}
	return false
}

// icachePush records id in the ring.
func (cs *coreState) icachePush(id proc.TaskID) {
	if cs.icacheHas(id) {
		return
	}
	cs.icache[cs.icachePos] = id
	cs.icachePos = (cs.icachePos + 1) % len(cs.icache)
	if cs.icacheLen < len(cs.icache) {
		cs.icacheLen++
	}
}

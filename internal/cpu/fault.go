package cpu

// This file is the runtime side of fault injection (internal/fault):
// core hotplug with graceful task evacuation, socket thermal throttling,
// tick jitter and load spikes — plus the state view the invariant
// checker (internal/invariant) sweeps after every event.

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sim"
)

// onlineCount returns the number of online cores.
func (m *Machine) onlineCount() int {
	n := 0
	for i := range m.cores {
		if !m.cores[i].offline {
			n++
		}
	}
	return n
}

// nearestOnline returns the online core closest to c: same socket in
// scan order first, then the other sockets. Panics if every core is
// offline, which OfflineCore makes unreachable.
func (m *Machine) nearestOnline(c machine.CoreID) machine.CoreID {
	for _, s := range m.topo.SocketOrder(c) {
		for _, cand := range m.topo.ScanFrom(s, c) {
			if !m.cores[cand].offline {
				return cand
			}
		}
	}
	panic("cpu: no online core")
}

// OfflineCore takes core c offline, evacuating its tasks through the
// normal placement path. Taking the last online core offline is refused
// (counted as fault.offline_refused) so the machine can always make
// progress. Part of the fault.Injector surface.
func (m *Machine) OfflineCore(c machine.CoreID) {
	cs := &m.cores[c]
	if cs.offline {
		return
	}
	now := m.eng.Now()
	if m.onlineCount() <= 1 {
		if h := m.obs; h.Enabled() {
			h.Emit(obs.Fault{T: now, Action: "offline_refused", Core: int(c), Socket: -1})
		}
		return
	}

	// Detach the running task first, booking its progress (and the SMT
	// sibling's, whose pipeline share is about to change).
	var orphans []*proc.Task
	if t := cs.cur; t != nil {
		m.accountProgress(c)
		m.recordSlice(t, c, cs.curStart, now)
		t.LastRan = now
		if sib := m.topo.Sibling(c); sib != c && m.cores[sib].cur != nil {
			m.accountProgress(sib)
		}
		m.eng.Cancel(&cs.completion)
		cs.cur = nil
		t.State = proc.StateRunnable
		t.Cur = proc.NoCore
		t.Util.SetRunning(now, false)
		m.curRunnable--
		m.siblingSpeedChange(c)
		orphans = append(orphans, t)
	}
	for _, q := range cs.queue {
		q.Cur = proc.NoCore
		m.queuedTasks--
		m.curRunnable-- // the evacuation enqueue re-adds
		orphans = append(orphans, q)
	}
	cs.queue = cs.queue[:0]

	cs.offline = true
	cs.claimed = false // in-flight placements redirect at enqueue
	cs.spinUntil = now
	// A powered-down core carries no load: both signals drop to 0 and
	// stay there, whatever the detached task's level was.
	cs.util.Reset(now, 0)
	cs.util.SetLevel(now, 0)
	cs.hwUtil.Reset(now, 0)
	cs.hwUtil.SetLevel(now, 0)
	// Drop out of the turbo budget's activity window immediately: a
	// power-gated core frees its socket's budget.
	cs.lastActive = -sim.Second
	m.fm.Park(c)
	m.touch(c)
	if m.bootCore == c {
		m.bootCore = m.nearestOnline(c)
	}

	// Compact policy state (nest masks) before evacuation re-enters the
	// placement path, so searches never pick the dead core.
	m.policy.CoreOffline(m, c)

	evacFrom := m.nearestOnline(c)
	for _, t := range orphans {
		m.obs.Count("cpu.evacuated", 1)
		m.placeWakeup(t, evacFrom, false)
	}
	if h := m.obs; h.Enabled() {
		h.Emit(obs.Fault{T: now, Action: "offline", Core: int(c), Socket: -1, Tasks: len(orphans)})
	}
}

// OnlineCore brings core c back online, cold and idle. Part of the
// fault.Injector surface.
func (m *Machine) OnlineCore(c machine.CoreID) {
	cs := &m.cores[c]
	if !cs.offline {
		return
	}
	now := m.eng.Now()
	cs.offline = false
	cs.idleSince = now
	m.fm.Park(c)
	m.touch(c)
	m.policy.CoreOnline(m, c)
	if h := m.obs; h.Enabled() {
		h.Emit(obs.Fault{T: now, Action: "online", Core: int(c), Socket: -1})
	}
}

// ThrottleSocket caps socket s's frequency (cap <= 0 releases the
// throttle). Progress on the socket is booked at the old frequencies
// before the clamp, then completions are re-armed at the new ones. The
// cap moves every idle core's frequency floor, so the whole socket
// leaves the settled set. Part of the fault.Injector surface.
func (m *Machine) ThrottleSocket(s int, cap machine.FreqMHz) {
	for _, c := range m.topo.SocketCores(s) {
		m.accountProgress(c)
	}
	m.fm.SetSocketCap(s, cap)
	for _, c := range m.topo.SocketCores(s) {
		m.touch(c)
		if m.cores[c].cur != nil {
			m.scheduleCompletion(c)
		}
	}
	if h := m.obs; h.Enabled() {
		action := "throttle"
		if cap <= 0 {
			action = "unthrottle"
		}
		h.Emit(obs.Fault{T: m.eng.Now(), Action: action, Core: -1, Socket: s, CapMHz: int(cap)})
	}
}

// SetTickJitter sets the tick-period jitter amplitude (0 disables it).
// Each subsequent tick re-arms after Tick plus a deterministic draw from
// [0, amp) off the run's seeded RNG. Part of the fault.Injector surface.
func (m *Machine) SetTickJitter(amp sim.Duration) {
	m.tickJitter = amp
	if h := m.obs; h.Enabled() {
		action := "jitter"
		if amp <= 0 {
			action = "jitter_off"
		}
		h.Emit(obs.Fault{T: m.eng.Now(), Action: action, Core: -1, Socket: -1})
	}
}

// InjectLoad spawns n independent compute tasks of `work` each (at the
// nominal frequency) from the boot core — a load spike. Each placement
// claims its target through dispatch, whose touch takes that core out
// of the settled set. Part of the fault.Injector surface.
func (m *Machine) InjectLoad(n int, work sim.Duration) {
	cycles := proc.Cycles(work, m.spec.Nominal)
	for i := 0; i < n; i++ {
		m.Spawn(fmt.Sprintf("spike%d", i), proc.Once(proc.Compute{Cycles: cycles}))
	}
	if h := m.obs; h.Enabled() {
		h.Emit(obs.Fault{T: m.eng.Now(), Action: "spike", Core: -1, Socket: -1, Tasks: n})
	}
}

// ---- invariant.State ------------------------------------------------
//
// The remaining views exist for the invariant checker; Online also
// serves sched.Machine (iface.go).

// Running implements invariant.State.
func (m *Machine) Running(c machine.CoreID) *proc.Task { return m.cores[c].cur }

// Queued implements invariant.State.
func (m *Machine) Queued(c machine.CoreID) []*proc.Task { return m.cores[c].queue }

// CoreLoad implements invariant.LoadAccounting: c's two PELT levels and
// the load it adds to its socket's SocketLoads sum now. It reads a copy
// of the utilisation signal, so the run's signal is not advanced.
func (m *Machine) CoreLoad(c machine.CoreID) (utilLevel, hwLevel, load float64) {
	cs := &m.cores[c]
	u := cs.util
	return cs.util.Level(), cs.hwUtil.Level(), u.Value(m.eng.Now()) + float64(len(cs.queue))
}

// QueuedTasks implements invariant.QueueAccounting: the cached count of
// tasks sitting in run queues, which the balance scans early-out on.
func (m *Machine) QueuedTasks() int { return m.queuedTasks }

// LiveTasks implements invariant.State. Populated only when a checker
// is configured; exited tasks are compacted away on each call.
func (m *Machine) LiveTasks() []*proc.Task {
	live := m.tasks[:0]
	for _, t := range m.tasks {
		if t.State != proc.StateExited {
			live = append(live, t)
		}
	}
	m.tasks = live
	return live
}

// PlacementInFlight implements invariant.State: t is between core
// selection and enqueue.
func (m *Machine) PlacementInFlight(t *proc.Task) bool {
	return m.inFlight[t.ID] > 0
}

// FreqCap implements invariant.State: the turbo ceiling clamped by any
// active thermal throttle.
func (m *Machine) FreqCap(c machine.CoreID) machine.FreqMHz { return m.fm.CapFor(c) }

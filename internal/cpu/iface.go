package cpu

// This file implements sched.Machine: the read/claim view policies get
// during core selection.

import (
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Spec implements sched.Machine.
func (m *Machine) Spec() *machine.Spec { return m.spec }

// Topo implements sched.Machine.
func (m *Machine) Topo() *machine.Topology { return m.topo }

// Now implements sched.Machine.
func (m *Machine) Now() sim.Time { return m.eng.Now() }

// Rand implements sched.Machine.
func (m *Machine) Rand() *sim.Rand { return m.rng }

// Obs implements sched.Machine.
func (m *Machine) Obs() *obs.Hub { return m.obs }

// IsIdle implements sched.Machine: no running task and nothing queued.
// An idle-spinning core is still idle for placement; an offline core
// never is.
func (m *Machine) IsIdle(c machine.CoreID) bool {
	cs := &m.cores[c]
	return !cs.offline && cs.cur == nil && len(cs.queue) == 0
}

// Online implements sched.Machine (and invariant.State).
func (m *Machine) Online(c machine.CoreID) bool { return !m.cores[c].offline }

// QueueLen implements sched.Machine.
func (m *Machine) QueueLen(c machine.CoreID) int {
	cs := &m.cores[c]
	n := len(cs.queue)
	if cs.cur != nil {
		n++
	}
	return n
}

// LoadAvg implements sched.Machine: decaying utilisation plus queued
// load. The utilisation term keeps recently idled cores "loaded", the
// behaviour behind CFS's cold-core preference.
func (m *Machine) LoadAvg(c machine.CoreID) float64 {
	cs := &m.cores[c]
	return cs.util.Value(m.eng.Now()) + float64(len(cs.queue))
}

// CurFreq implements sched.Machine.
func (m *Machine) CurFreq(c machine.CoreID) machine.FreqMHz { return m.fm.Cur(c) }

// TickFreq implements sched.Machine.
func (m *Machine) TickFreq(c machine.CoreID) machine.FreqMHz { return m.fm.TickSample(c) }

// IdleSince implements sched.Machine.
func (m *Machine) IdleSince(c machine.CoreID) (sim.Time, bool) {
	cs := &m.cores[c]
	if cs.cur != nil {
		return 0, false
	}
	return cs.idleSince, true
}

// Claimed implements sched.Machine.
func (m *Machine) Claimed(c machine.CoreID) bool { return m.cores[c].claimed }

// SocketLoads implements sched.Machine: per-socket load sums as of the
// last tick (stale, as the kernel's domain statistics are).
func (m *Machine) SocketLoads() []float64 { return m.sockLoads }

// SocketRunning implements sched.Machine: per-socket runnable counts,
// current at the call — the kernel's find_idlest_group iterates
// runqueues at fork time, so a fork storm sees its own earlier
// placements. touch and flushPlacement maintain them.
func (m *Machine) SocketRunning() []int {
	m.flushPlacement()
	return m.sockRunning
}

// IdleMask implements sched.Machine.
func (m *Machine) IdleMask(s int) sched.Mask {
	m.flushPlacement()
	return m.idleMask(s)
}

// ClaimedMask implements sched.Machine.
func (m *Machine) ClaimedMask(s int) sched.Mask {
	m.flushPlacement()
	return m.claimMask(s)
}

// perCoreSearch is charged per core examined during placement, on top of
// the policy's fixed cost — Nest's longer scans in hackbench (§5.6).
const perCoreSearch = 40 * sim.Nanosecond

// ChargeSearch implements sched.Machine.
func (m *Machine) ChargeSearch(examined int, fixed sim.Duration) {
	m.pendingSearch += sim.Duration(examined)*perCoreSearch + fixed
	m.res.Counters.CoresExamined += int64(examined)
}

// MoveIfStillQueued implements sched.Machine: the Smove migration timer.
func (m *Machine) MoveIfStillQueued(t *proc.Task, to machine.CoreID, d sim.Duration) {
	r := m.rec(evSmoveTimer)
	r.task = t
	r.core = to
	m.eng.PostRunAfter(d, r)
}

// smoveIfStillQueued is the Smove timer expiry: migrate the task to the
// reserved core if it is still waiting on some other core's queue.
func (m *Machine) smoveIfStillQueued(t *proc.Task, to machine.CoreID) {
	// Skip unless the task is actually sitting on a queue: it may be
	// running, blocked again, or in flight between placement and
	// enqueue (Cur is NoCore then).
	if t.State != proc.StateRunnable || t.Cur == to || t.Cur == proc.NoCore {
		return
	}
	from := t.Cur
	cs := &m.cores[from]
	for i, q := range cs.queue {
		if q == t {
			m.touch(from)
			cs.queue = append(cs.queue[:i], cs.queue[i+1:]...)
			m.queuedTasks--
			m.curRunnable--
			m.res.Counters.Migrations++
			if h := m.obs; h.Enabled() {
				h.Emit(obs.Migration{
					T: m.eng.Now(), Task: int(t.ID), TaskName: t.Name,
					From: int(from), To: int(to), Reason: "smove_timer",
				})
			}
			m.enqueue(t, to)
			return
		}
	}
}

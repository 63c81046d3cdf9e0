// Package sched defines the interface between the machine runtime
// (internal/cpu) and scheduling policies (internal/cfs, internal/core,
// internal/smove), mirroring the seam the paper exploits: Nest is "a
// single block of code placed in front of the core selection function of
// CFS" (§7), so policies here only decide *where* a task goes; everything
// else (run queues, ticks, frequencies) is shared machinery.
package sched

import (
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sim"
)

// Machine is the read/claim view of the machine runtime that policies
// operate on during core selection.
type Machine interface {
	// Spec returns the hardware description.
	Spec() *machine.Spec
	// Topo returns the CPU topology.
	Topo() *machine.Topology
	// Now returns the current virtual time.
	Now() sim.Time
	// Rand returns the run's deterministic RNG.
	Rand() *sim.Rand
	// Obs returns the run's observability hub, or nil when decision
	// tracing is disabled. Guard event construction behind
	// Obs().Enabled() so disabled runs stay allocation-free.
	Obs() *obs.Hub

	// IsIdle reports whether core c has no running task and an empty run
	// queue. Idle spinning does not make a core busy for placement. An
	// offline core is never idle: every idle-based search skips it.
	IsIdle(c machine.CoreID) bool
	// Online reports whether core c can execute tasks. Cores go offline
	// only through fault injection (internal/fault); load-based searches
	// that do not go through IsIdle must skip offline cores themselves.
	Online(c machine.CoreID) bool
	// QueueLen returns the number of runnable tasks on c, including the
	// running one.
	QueueLen(c machine.CoreID) int
	// LoadAvg returns the PELT-style load average CFS placement compares:
	// decaying utilisation plus queued load. A recently idled core reads
	// well above zero — the cause of CFS's cold-core preference.
	LoadAvg(c machine.CoreID) float64
	// CurFreq returns c's instantaneous frequency.
	CurFreq(c machine.CoreID) machine.FreqMHz
	// TickFreq returns c's frequency as sampled at the last tick — the
	// lagging view tick-based observers like Smove get.
	TickFreq(c machine.CoreID) machine.FreqMHz
	// IdleSince returns when c last became idle; ok is false if busy.
	IdleSince(c machine.CoreID) (t sim.Time, ok bool)
	// Claimed reports whether a placement is in flight to c (the run
	// queue flag of §3.4). Nest skips claimed cores; CFS does not look.
	Claimed(c machine.CoreID) bool
	// SocketLoads returns per-socket load sums as cached at the last
	// tick. CFS's domain-level statistics are genuinely stale like this
	// in the kernel, which is what lets rapid fork storms overfill a
	// socket before its rising load becomes visible.
	SocketLoads() []float64
	// SocketRunning returns per-socket runnable-task counts (running +
	// queued + placements in flight), current at the call: unlike
	// SocketLoads they are not cached at the tick, so a fork storm sees
	// its own earlier placements. Fork's NUMA spill decision compares
	// these: sleeping tasks don't pin their socket.
	SocketRunning() []int
	// IdleMask returns socket s's cores for which IsIdle holds, as a Mask
	// indexed by position in Topo().SocketCores(s). The slice belongs to
	// the machine and reflects its state at the call; callers must
	// neither modify it nor keep it across a placement.
	IdleMask(s int) Mask
	// ClaimedMask returns socket s's cores for which Claimed holds, on
	// the same terms as IdleMask.
	ClaimedMask(s int) Mask

	// ChargeSearch accounts placement work (cores examined plus a fixed
	// policy cost in nanoseconds) against the core performing the
	// placement. Nest's longer searches make this matter (§5.6,
	// hackbench).
	ChargeSearch(examined int, fixed sim.Duration)

	// MoveIfStillQueued arms a timer that migrates t to core `to` if t
	// has not started running within d — the Smove mechanism (§2.2).
	MoveIfStillQueued(t *proc.Task, to machine.CoreID, d sim.Duration)
}

// Placement says where a task should be enqueued.
type Placement struct {
	Core machine.CoreID
}

// Policy decides task placement and reacts to lifecycle hooks. All
// methods run synchronously inside the simulation loop.
type Policy interface {
	// Name identifies the policy in reports ("cfs", "nest", "smove").
	Name() string

	// SelectCoreFork picks the core for a newly forked (or exec'd) task.
	// parentCore is the core performing the fork.
	SelectCoreFork(m Machine, parent, child *proc.Task, parentCore machine.CoreID) machine.CoreID

	// SelectCoreWakeup picks the core for a waking task. wakerCore is the
	// core performing the wakeup; sync hints that the waker is about to
	// block (pipe-style handoff).
	SelectCoreWakeup(m Machine, t *proc.Task, wakerCore machine.CoreID, sync bool) machine.CoreID

	// ScheduledIn reports that t started executing on c.
	ScheduledIn(m Machine, t *proc.Task, c machine.CoreID)

	// Blocked reports that t left c (sleep or block, not exit).
	Blocked(m Machine, t *proc.Task, c machine.CoreID)

	// Exited reports that t exited on c; coreIdle says the core is now
	// idle (Nest demotes such cores immediately, §3.1).
	Exited(m Machine, t *proc.Task, c machine.CoreID, coreIdle bool)

	// IdleSpin returns how long a newly idle core should keep spinning to
	// stay warm (zero for CFS; up to S_max for Nest, §3.2).
	IdleSpin(m Machine, c machine.CoreID) sim.Duration

	// CoreOffline reports that c went offline (hotplug fault injection).
	// The runtime has already evacuated c's tasks; policies must drop any
	// per-core state referencing c (Nest compacts its masks) before
	// placement resumes.
	CoreOffline(m Machine, c machine.CoreID)

	// CoreOnline reports that c came back online. The core returns cold
	// and idle; policies need not do anything (Nest re-adopts it through
	// the normal probation path).
	CoreOnline(m Machine, c machine.CoreID)
}

// Base provides no-op hook implementations so simple policies only
// implement the selection methods.
type Base struct{}

// ScheduledIn implements Policy.
func (Base) ScheduledIn(Machine, *proc.Task, machine.CoreID) {}

// Blocked implements Policy.
func (Base) Blocked(Machine, *proc.Task, machine.CoreID) {}

// Exited implements Policy.
func (Base) Exited(Machine, *proc.Task, machine.CoreID, bool) {}

// IdleSpin implements Policy.
func (Base) IdleSpin(Machine, machine.CoreID) sim.Duration { return 0 }

// CoreOffline implements Policy.
func (Base) CoreOffline(Machine, machine.CoreID) {}

// CoreOnline implements Policy.
func (Base) CoreOnline(Machine, machine.CoreID) {}

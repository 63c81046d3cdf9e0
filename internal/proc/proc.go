// Package proc defines the task model the simulator executes: tasks run
// behaviours that yield actions (compute, sleep, fork, synchronisation),
// mirroring how the paper's workloads exercise the scheduler through
// fork, block, wakeup and exit.
package proc

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/pelt"
	"repro/internal/sim"
)

// TaskID identifies a task within one simulation.
type TaskID int

// State is a task's lifecycle state.
type State int

// Task states.
const (
	// StateNew means created but never enqueued.
	StateNew State = iota
	// StateRunnable means waiting on a run queue.
	StateRunnable
	// StateRunning means currently executing on a core.
	StateRunning
	// StateSleeping means waiting on a timer.
	StateSleeping
	// StateBlocked means waiting on children, a channel or a barrier.
	StateBlocked
	// StateExited means finished.
	StateExited
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateBlocked:
		return "blocked"
	case StateExited:
		return "exited"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// NoCore marks an unset core in task history.
const NoCore machine.CoreID = -1

// Task is one schedulable entity.
type Task struct {
	ID   TaskID
	Name string

	// Behavior yields the next action whenever the previous one
	// completes. nil behaves as an immediate Exit.
	Behavior Behavior

	State State

	// Cur is the core the task is running or queued on; NoCore otherwise.
	Cur machine.CoreID

	// Last and Prev2 are the cores of the task's two most recent
	// executions (§3.3's history of size two). A task is attached to
	// Last when both are set and equal.
	Last, Prev2 machine.CoreID

	// Parent links the forking task; LiveChildren counts un-exited
	// children for WaitChildren.
	Parent       *Task
	LiveChildren int
	waitingKids  bool

	// Remaining is the unfinished cycle count of the current Compute.
	Remaining int64

	// VRuntime orders tasks within a run queue, as in CFS.
	VRuntime int64

	// Util tracks the task's own recent activity; it seeds the core-side
	// utilisation when the task migrates, the way PELT load follows a
	// task in the kernel.
	Util pelt.Signal

	// SchedData is per-policy scratch state (e.g. Nest's impatience
	// counter). Policies own its type.
	SchedData any

	// Now is the virtual time at which the current Behavior call is
	// made; the runtime refreshes it before every call so behaviours can
	// scale waits with observed progress (lock and queue waits in real
	// applications shrink when the system runs faster).
	Now sim.Time

	// Created and Finished bracket the task's life.
	Created, Finished sim.Time

	// LastWoken is when the task last became runnable, for wakeup-latency
	// accounting.
	LastWoken sim.Time

	// EnqueuedAt is when the task last joined a run queue (including
	// preemption requeues); load balancing uses it to judge how long a
	// waiter has been stuck.
	EnqueuedAt sim.Time

	// CPUTime accumulates cycles actually executed, for fairness tests.
	CPUTime int64

	// LastRan is when the task last stopped executing; load balancing
	// treats recently-run tasks as cache-hot and avoids migrating them.
	LastRan sim.Time

	// YieldingSpin marks a task busy-waiting on an active barrier: it
	// yields its core immediately to any queued task (GOMP spinners call
	// sched_yield in their wait loop).
	YieldingSpin bool
}

// WaitingKids reports whether the task is blocked in WaitChildren.
func (t *Task) WaitingKids() bool { return t.waitingKids }

// SetWaitingKids marks or clears the WaitChildren block.
func (t *Task) SetWaitingKids(w bool) { t.waitingKids = w }

// Attached reports whether the task's two previous executions used the
// same core (§3.3): the task's first placement choice is then that core.
func (t *Task) Attached() bool {
	return t.Last != NoCore && t.Last == t.Prev2
}

// RecordExecution shifts the execution-core history.
func (t *Task) RecordExecution(c machine.CoreID) {
	t.Prev2 = t.Last
	t.Last = c
}

// Action is one step of a task's behaviour. Exactly the action kinds the
// paper's workloads need exist; the simulator's interpreter lives in
// internal/cpu.
//
// Compute and Sleep may also be returned by pointer (*Compute, *Sleep):
// a behaviour whose cycle count or duration changes every segment keeps
// one value of each in its closure, fills it in and returns its address,
// so its steady-state action stream allocates nothing (boxing a fresh
// 8-byte value into Action allocates). The interpreter reads a pointer
// action before it calls the behaviour again and never keeps the
// pointer, so the behaviour may overwrite the value on its next call.
// Actions queued for later (a Script, a pending list) are read only when
// their turn comes, so queue values there.
type Action interface{ isAction() }

// Compute runs the given number of CPU cycles. Wall time depends on the
// frequency of the core the task lands on — the whole point of Nest.
type Compute struct{ Cycles int64 }

// Sleep blocks the task for a fixed duration (timer wakeup).
type Sleep struct{ D sim.Duration }

// Fork creates a child task running Behavior and continues immediately.
type Fork struct {
	Name     string
	Behavior Behavior
}

// WaitChildren blocks until all of the task's live children exit.
type WaitChildren struct{}

// BarrierWait blocks until all parties of B have arrived.
type BarrierWait struct{ B *Barrier }

// Send delivers one message to Ch, blocking while the channel is full.
type Send struct{ Ch *Chan }

// Recv takes one message from Ch, blocking while the channel is empty.
type Recv struct{ Ch *Chan }

// Exec re-runs core placement for the task itself, as execve() does in
// the kernel (sched_exec): the cheapest moment to migrate, since the
// address space is about to be replaced.
type Exec struct{}

// Exit terminates the task.
type Exit struct{}

func (Compute) isAction()      {}
func (Sleep) isAction()        {}
func (Fork) isAction()         {}
func (WaitChildren) isAction() {}
func (BarrierWait) isAction()  {}
func (Send) isAction()         {}
func (Recv) isAction()         {}
func (Exec) isAction()         {}
func (Exit) isAction()         {}

// Behavior produces a task's next action. It is called again after each
// action completes; returning Exit (or nil behaviour) ends the task.
// Behaviours must be deterministic given the task and the supplied RNG.
type Behavior func(t *Task, r *sim.Rand) Action

// Cycles converts "duration at frequency" into a cycle count, so
// workloads can express work as time-at-nominal-frequency.
func Cycles(d sim.Duration, f machine.FreqMHz) int64 {
	return int64(d) * int64(f) / 1000
}

// TimeFor converts remaining cycles into wall time at frequency f,
// rounding up so completion events never land early.
func TimeFor(cycles int64, f machine.FreqMHz) sim.Duration {
	if cycles <= 0 {
		return 0
	}
	if f <= 0 {
		panic("proc: TimeFor with non-positive frequency")
	}
	return sim.Duration((cycles*1000 + int64(f) - 1) / int64(f))
}

// Script returns a behaviour that plays the given actions in order, then
// exits.
func Script(actions ...Action) Behavior {
	i := 0
	return func(t *Task, r *sim.Rand) Action {
		if i >= len(actions) {
			return Exit{}
		}
		a := actions[i]
		i++
		return a
	}
}

// Once returns a behaviour that plays a single action and exits — the
// body of every fork-storm kid. It is Script(a) minus the variadic
// slice, which matters when a parent mints hundreds of children.
func Once(a Action) Behavior {
	done := false
	return func(t *Task, r *sim.Rand) Action {
		if done {
			return Exit{}
		}
		done = true
		return a
	}
}

// Repeat returns a behaviour that plays the given fixed actions n times
// over, then exits. Unlike Loop with a constant generator it boxes the
// actions exactly once, so a task's steady-state action stream allocates
// nothing. The actions must be stateless values (Compute, Sleep, Send,
// Recv, BarrierWait...): a Fork's Behavior closure would be shared
// across iterations, which is almost never what a workload means — use
// Loop for those.
func Repeat(n int, actions ...Action) Behavior {
	iter, i := 0, 0
	return func(t *Task, r *sim.Rand) Action {
		if i >= len(actions) {
			i = 0
			iter++
		}
		if iter >= n || len(actions) == 0 {
			return Exit{}
		}
		a := actions[i]
		i++
		return a
	}
}

// Loop returns a behaviour that plays n iterations of an action
// sequence, then exits. gen builds iteration i's sequence when the
// previous one is used up; an empty sequence skips the iteration.
func Loop(n int, gen func(i int) []Action) Behavior {
	iter := 0
	var pending []Action
	return func(t *Task, r *sim.Rand) Action {
		for len(pending) == 0 {
			if iter >= n {
				return Exit{}
			}
			pending = gen(iter)
			iter++
		}
		a := pending[0]
		pending = pending[1:]
		return a
	}
}

// Chan is a bounded message channel in the style of a socketpair: Send
// blocks when full, Recv blocks when empty. The simulator wakes the
// counterpart on each transfer, exactly the wakeup pattern hackbench
// hammers the scheduler with.
type Chan struct {
	Name     string
	Capacity int
	Queued   int
	// HighWater is the largest queue depth the channel ever reached —
	// pure measurement, maintained by the runtime, never read back into
	// any scheduling or blocking decision.
	HighWater int
	// Senders and Receivers hold tasks blocked on this channel, FIFO.
	Senders   []*Task
	Receivers []*Task
}

// NewChan returns a channel with the given buffer capacity (min 1).
func NewChan(name string, capacity int) *Chan {
	if capacity < 1 {
		capacity = 1
	}
	return &Chan{Name: name, Capacity: capacity}
}

// Barrier synchronises a fixed set of parties, like an OpenMP barrier:
// the last arriver releases everyone (and performs all the wakeups, so
// the wakeup burst originates from one core, as on real hardware).
type Barrier struct {
	Name    string
	Parties int
	Waiting []*Task
	// ActiveWait makes waiters busy-wait on their cores (OpenMP's
	// default OMP_WAIT_POLICY=active): the cores stay fully active, so
	// neither the frequency grant nor the turbo window sees the pause.
	// This is why the NAS kernels are insensitive to Nest's spinning.
	ActiveWait bool
}

// NewBarrier returns a barrier for n parties.
func NewBarrier(name string, n int) *Barrier {
	if n < 1 {
		panic("proc: barrier needs at least one party")
	}
	return &Barrier{Name: name, Parties: n}
}

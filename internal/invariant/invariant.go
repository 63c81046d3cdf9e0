// Package invariant validates structural scheduler invariants after
// every simulation event.
//
// The checker is the safety net under fault injection (internal/fault):
// hotplug and throttling exercise paths — mid-run evacuation, mask
// compaction, frequency re-clamping — that no steady-state workload
// reaches, and a policy bug there silently corrupts every metric
// downstream. Bound to a machine through the engine's OnStep hook, the
// checker sweeps the full machine state after each event and reports any
// violation as an obs.InvariantViolation event plus a stored Violation.
// A healthy run, faults or not, reports zero.
//
// Checked invariants:
//
//   - clock_monotonic: virtual time never moves backwards.
//   - offline_running / offline_queued: offline cores hold no tasks.
//   - offline_load: an offline core's PELT levels are both 0 and it adds
//     0 to its socket's load sum (LoadAccounting).
//   - running_state / running_cur: a core's current task is in
//     StateRunning with Cur naming that core.
//   - queued_state / queued_cur: queued tasks are StateRunnable with
//     Cur naming their queue's core.
//   - double_run: no task appears on two run queues at once.
//   - task_lost: every live runnable/running task is findable on an
//     online core, unless its placement is in flight.
//   - task_phantom: sleeping/blocked/new tasks appear on no run queue.
//   - nest_mask_overlap / nest_offline_core: nest primary and reserve
//     masks are disjoint and confined to online cores.
//   - freq_above_cap: no core's frequency exceeds its turbo-ladder cap
//     clamped by any active thermal throttle.
//   - queued_count: the runtime's cached waiter count matches its
//     queues (QueueAccounting).
//   - settled_set: every core in the runtime's settled set meets the
//     settled predicate, and the cached set size matches the set
//     (IdleAccounting).
//   - turbo_count: each socket's cached turbo-budget count matches a
//     full scan (IdleAccounting).
//   - idle_masks: the idle and claimed bits placement reads match each
//     core's state (PlacementAccounting).
//   - socket_running: each socket's maintained runnable count matches a
//     full recount (PlacementAccounting).
//
// Beyond the structural sweep, workloads can register domain probes
// (RegisterProbe) checked at the same cadence — e.g. the fan-out
// workloads' fanout_conservation rule (internal/workload).
package invariant

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sim"
)

// State is the runtime view the checker sweeps. *cpu.Machine implements
// it; tests substitute fakes to provoke violations.
type State interface {
	Now() sim.Time
	Topo() *machine.Topology
	// Online reports whether core c can execute tasks.
	Online(c machine.CoreID) bool
	// Running returns c's current task (nil when idle).
	Running(c machine.CoreID) *proc.Task
	// Queued returns c's run queue, excluding the running task. The
	// checker only reads the slice.
	Queued(c machine.CoreID) []*proc.Task
	// LiveTasks returns every non-exited task.
	LiveTasks() []*proc.Task
	// PlacementInFlight reports whether t is between core selection and
	// enqueue — the only window a runnable task is legitimately on no
	// queue.
	PlacementInFlight(t *proc.Task) bool
	// CurFreq returns c's instantaneous frequency.
	CurFreq(c machine.CoreID) machine.FreqMHz
	// FreqCap returns the highest frequency c may legitimately run at.
	FreqCap(c machine.CoreID) machine.FreqMHz
}

// QueueAccounting is the optional waiter-count introspection a runtime
// provides; when the bound state implements it, the checker verifies the
// cached count against the queues it just swept. The runtime's balance
// scans early-out on this counter, so drift would silently disable load
// balancing. *cpu.Machine implements it.
type QueueAccounting interface {
	QueuedTasks() int
}

// IdleAccounting is the optional introspection of the runtime's idle-core
// bookkeeping; when the bound state implements it, the checker re-derives
// both caches by brute force. The tick skips settled cores and the
// dispatch path reads the turbo count from its cache, so a write that
// missed the runtime's hook would silently skew frequency, energy and
// underload. *cpu.Machine implements it.
type IdleAccounting interface {
	// Settled reports whether core c is in the settled set, and whether
	// the settled predicate, evaluated afresh, holds for it now. A core
	// in the set must meet the predicate; a core meeting it need not be
	// in the set yet (cores join at the tick).
	Settled(c machine.CoreID) (inSet, holds bool)
	// SettledCount returns the size of the settled set as the runtime
	// counts it.
	SettledCount() int
	// TurboCount returns the turbo-budget count the cache would serve for
	// socket s now, and the count a full scan gives.
	TurboCount(s int) (served, scanned int)
}

// PlacementAccounting is the optional introspection of the placement
// state the runtime maintains instead of scanning the machine; when the
// bound state implements it, the checker re-derives that state by brute
// force, without flushing the runtime's pending updates. The placement
// searches read the idle and claimed masks and the fork path reads the
// runnable counts, so a write that missed the runtime's hook would
// silently misplace tasks. *cpu.Machine implements it.
type PlacementAccounting interface {
	// IdleBits returns core c's idle and claimed bits as the next
	// placement query would read them, and as c's state gives them.
	IdleBits(c machine.CoreID) (servedIdle, servedClaimed, idle, claimed bool)
	// RunningCount returns the runnable count SocketRunning would serve
	// for socket s now, and a full recount.
	RunningCount(s int) (served, counted int)
}

// LoadAccounting is the optional per-core load view a runtime provides;
// when the bound state implements it, the checker verifies that offline
// cores carry no load. CFS's wake_affine choice compares socket load
// sums, so a phantom load on a dead core would skew placement.
// *cpu.Machine implements it.
type LoadAccounting interface {
	// CoreLoad returns c's utilisation and hardware activity levels and
	// the load c adds to its socket's SocketLoads sum now, without
	// advancing either signal.
	CoreLoad(c machine.CoreID) (utilLevel, hwLevel, load float64)
}

// NestView is the optional mask introspection a nest-style policy
// provides; when the bound policy implements it, the checker validates
// the masks too. *core.Policy implements it.
type NestView interface {
	InPrimary(c machine.CoreID) bool
	InReserve(c machine.CoreID) bool
}

// Violation is one recorded invariant failure.
type Violation struct {
	T      sim.Time
	Rule   string
	Detail string
}

// String renders the violation for error messages and CLI output.
func (v Violation) String() string {
	return fmt.Sprintf("%v %s: %s", v.T, v.Rule, v.Detail)
}

// maxStored bounds the retained violation list: a systemic bug trips on
// every event, and storing millions of copies helps nobody. The Total
// count keeps counting.
const maxStored = 100

// Checker sweeps the invariants. Zero-valued it is inert; Bind arms it.
type Checker struct {
	st   State
	nest NestView
	hub  *obs.Hub

	lastNow    sim.Time
	checks     uint64
	total      int
	violations []Violation
	seen       map[proc.TaskID]int // per-sweep occurrence scratch
	probes     []probe
}

// probe is one registered domain invariant (see RegisterProbe).
type probe struct {
	rule string
	fn   func() string
}

// New returns an unbound checker.
func New() *Checker { return &Checker{} }

// SetObs attaches an observability hub; violations are then emitted as
// obs.InvariantViolation events (counters invariant.violation and
// invariant.<rule>).
func (c *Checker) SetObs(h *obs.Hub) { c.hub = h }

// Bind attaches the checker to a machine state and its policy. If the
// policy exposes nest masks (NestView), they are validated too. Binding
// a fresh run resets the clock watermark (virtual time restarts at
// zero); accumulated violation counts carry over.
func (c *Checker) Bind(st State, policy any) {
	c.st = st
	c.nest = nil
	c.lastNow = 0
	c.seen = make(map[proc.TaskID]int)
	c.probes = nil
	if nv, ok := policy.(NestView); ok {
		c.nest = nv
	}
}

// RegisterProbe adds a domain invariant swept alongside the structural
// ones: fn returns "" while the invariant holds, or a violation detail.
// Workloads register probes after the machine binds the checker (e.g.
// fanout_conservation: every issued subtask attempt is terminal in
// exactly one outcome or still outstanding); Bind clears them, so each
// run registers its own.
func (c *Checker) RegisterProbe(rule string, fn func() string) {
	c.probes = append(c.probes, probe{rule: rule, fn: fn})
}

// Checks returns how many sweeps have run.
func (c *Checker) Checks() uint64 { return c.checks }

// Total returns the total number of violations found, including ones
// past the storage bound.
func (c *Checker) Total() int { return c.total }

// Violations returns the stored violations (the first maxStored).
func (c *Checker) Violations() []Violation { return c.violations }

func (c *Checker) report(rule, format string, args ...any) {
	v := Violation{T: c.st.Now(), Rule: rule, Detail: fmt.Sprintf(format, args...)}
	c.total++
	if len(c.violations) < maxStored {
		c.violations = append(c.violations, v)
	}
	if h := c.hub; h.Enabled() {
		h.Emit(obs.InvariantViolation{T: v.T, Rule: v.Rule, Detail: v.Detail})
	}
}

// Check sweeps every invariant once. Designed to hang off
// sim.Engine.OnStep, so it must tolerate any intermediate-but-consistent
// state the runtime leaves between events.
func (c *Checker) Check() {
	if c.st == nil {
		return
	}
	c.checks++
	now := c.st.Now()
	if now < c.lastNow {
		c.report("clock_monotonic", "clock moved from %v to %v", c.lastNow, now)
	}
	c.lastNow = now

	topo := c.st.Topo()
	n := topo.NumCores()
	la, _ := c.st.(LoadAccounting)
	clear(c.seen)
	totalQueued := 0
	for i := 0; i < n; i++ {
		cid := machine.CoreID(i)
		online := c.st.Online(cid)
		run := c.st.Running(cid)
		queued := c.st.Queued(cid)
		totalQueued += len(queued)
		if !online {
			if run != nil {
				c.report("offline_running", "core %d is offline but runs task %d", i, run.ID)
			}
			if len(queued) > 0 {
				c.report("offline_queued", "core %d is offline but queues %d tasks", i, len(queued))
			}
			if c.nest != nil && (c.nest.InPrimary(cid) || c.nest.InReserve(cid)) {
				c.report("nest_offline_core", "offline core %d is still in a nest mask", i)
			}
			if la != nil {
				if u, hw, load := la.CoreLoad(cid); u != 0 || hw != 0 || load != 0 {
					c.report("offline_load", "offline core %d has levels %g/%g and load %g", i, u, hw, load)
				}
			}
		}
		if run != nil {
			c.seen[run.ID]++
			if run.State != proc.StateRunning {
				c.report("running_state", "task %d on core %d has state %v", run.ID, i, run.State)
			}
			if run.Cur != cid {
				c.report("running_cur", "task %d runs on core %d but Cur says %d", run.ID, i, run.Cur)
			}
		}
		for _, q := range queued {
			c.seen[q.ID]++
			if q.State != proc.StateRunnable {
				c.report("queued_state", "task %d queued on core %d has state %v", q.ID, i, q.State)
			}
			if q.Cur != cid {
				c.report("queued_cur", "task %d queued on core %d but Cur says %d", q.ID, i, q.Cur)
			}
		}
		if c.nest != nil && c.nest.InPrimary(cid) && c.nest.InReserve(cid) {
			c.report("nest_mask_overlap", "core %d is in both nest masks", i)
		}
		// +1 MHz headroom absorbs the model's round-to-int grants.
		if f, cap := c.st.CurFreq(cid), c.st.FreqCap(cid); f > cap+1 {
			c.report("freq_above_cap", "core %d at %d MHz exceeds cap %d MHz", i, f, cap)
		}
	}

	if qa, ok := c.st.(QueueAccounting); ok && qa.QueuedTasks() != totalQueued {
		c.report("queued_count", "cached queued-task count %d but queues hold %d", qa.QueuedTasks(), totalQueued)
	}
	if ia, ok := c.st.(IdleAccounting); ok {
		c.checkIdle(ia, topo)
	}
	if pa, ok := c.st.(PlacementAccounting); ok {
		c.checkPlacement(pa, topo)
	}

	for _, t := range c.st.LiveTasks() {
		occ := c.seen[t.ID]
		switch t.State {
		case proc.StateRunning:
			if occ == 0 {
				c.report("task_lost", "running task %d (%s) is on no core", t.ID, t.Name)
			}
		case proc.StateRunnable:
			if occ == 0 && !c.st.PlacementInFlight(t) {
				c.report("task_lost", "runnable task %d (%s) is on no queue and not in flight", t.ID, t.Name)
			}
		default:
			if occ != 0 {
				c.report("task_phantom", "task %d (%s) in state %v appears on a run queue", t.ID, t.Name, t.State)
			}
		}
		if occ > 1 {
			c.report("double_run", "task %d (%s) appears %d times across run queues", t.ID, t.Name, occ)
		}
	}

	for _, p := range c.probes {
		if detail := p.fn(); detail != "" {
			c.report(p.rule, "%s", detail)
		}
	}
}

// checkIdle sweeps the settled_set and turbo_count rules.
func (c *Checker) checkIdle(ia IdleAccounting, topo *machine.Topology) {
	inSet := 0
	for i := 0; i < topo.NumCores(); i++ {
		in, holds := ia.Settled(machine.CoreID(i))
		if in {
			inSet++
			if !holds {
				c.report("settled_set", "core %d is in the settled set but does not meet the predicate", i)
			}
		}
	}
	if n := ia.SettledCount(); n != inSet {
		c.report("settled_set", "cached settled count %d but the set holds %d cores", n, inSet)
	}
	for s := 0; s < topo.NumSockets(); s++ {
		if served, scanned := ia.TurboCount(s); served != scanned {
			c.report("turbo_count", "socket %d: cached turbo count %d but a scan finds %d", s, served, scanned)
		}
	}
}

// checkPlacement sweeps the idle_masks and socket_running rules.
func (c *Checker) checkPlacement(pa PlacementAccounting, topo *machine.Topology) {
	for i := 0; i < topo.NumCores(); i++ {
		si, sc, idle, claimed := pa.IdleBits(machine.CoreID(i))
		if si != idle || sc != claimed {
			c.report("idle_masks", "core %d: served idle/claimed %v/%v but the core is %v/%v", i, si, sc, idle, claimed)
		}
	}
	for s := 0; s < topo.NumSockets(); s++ {
		if served, counted := pa.RunningCount(s); served != counted {
			c.report("socket_running", "socket %d: maintained runnable count %d but a recount finds %d", s, served, counted)
		}
	}
}

// Package cpu is the machine runtime: it glues the discrete-event engine,
// the topology, the frequency model, the governor and a scheduling policy
// into an executable machine that runs task programs and measures what
// the paper measures.
//
// The runtime owns run queues, ticks, preemption, idle balancing, idle
// spinning, the placement-flag protocol of §3.4, and all accounting
// (underload, frequency histograms, energy, latencies). Policies only
// pick cores.
package cpu

import (
	"fmt"

	"repro/internal/freqmodel"
	"repro/internal/governor"
	"repro/internal/invariant"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pelt"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Config assembles one run.
type Config struct {
	Spec   *machine.Spec
	Gov    governor.Governor
	Policy sched.Policy
	Seed   uint64

	// SampleEvery, when positive, emits periodic gauge events (per-core
	// state/frequency/queue depth, nest sizes, per-socket busy share)
	// through Obs at the given sim-time interval, rounded up to whole
	// ticks. Zero disables sampling; without an enabled Obs hub the
	// sampler costs nothing. Sampling only observes — enabling it never
	// changes simulation results.
	SampleEvery sim.Duration

	// Obs, when non-nil and enabled, receives decision events and counter
	// updates from every layer (policies, runtime, frequency model). Nil
	// keeps all instrumentation on the allocation-free fast path.
	Obs *obs.Hub

	// Engine, when non-nil, supplies the event engine instead of the
	// default sim.NewEngine(). The differential tests inject
	// sim.NewEngineHeap() here to run the pre-wheel heap oracle side by
	// side with the wheel engine; both must produce byte-identical runs.
	Engine *sim.Engine

	// Check, when non-nil, is bound to the machine and run after every
	// simulation event (sim.Engine.OnStep), validating the structural
	// invariants of internal/invariant. It costs a full machine sweep
	// per event; nil keeps the run on the fast path.
	Check *invariant.Checker
}

// coreState is the runtime state of one hardware thread.
//
// Field order is deliberate: cur, spinUntil and lastActive are what the
// tick's passes test first on every unsettled core and what a
// turbo-count rescan (activePhysOnSocket) reads across a whole socket, so
// they sit together in the struct's first cache line.
type coreState struct {
	id  machine.CoreID
	cur *proc.Task

	// spinUntil > now means the idle loop is spinning to keep the core
	// warm (§3.2).
	spinUntil sim.Time

	// lastActive is the most recent time the core ran or spun, feeding
	// the hardware's windowed active-core count.
	lastActive sim.Time

	// claimed marks an in-flight placement (§3.4's run-queue flag).
	claimed bool

	// offline marks a core taken down by fault injection (hotplug). An
	// offline core runs nothing, queues nothing, and redirects any
	// placement that was already in flight toward it.
	offline bool

	queue []*proc.Task

	util pelt.Signal

	// hwUtil is the hardware's own short-horizon activity estimate
	// (HWP), which drives the Speed Shift frequency grant.
	hwUtil pelt.Signal

	idleSince    sim.Time
	curStart     sim.Time
	progressMark sim.Time

	// completion is the core's reusable completion-event handle, armed in
	// place (sim.Engine.Arm) with the core's own comp runner — the
	// re-arm-on-every-speed-change churn of a busy core allocates
	// nothing.
	completion sim.Event
	comp       completionRunner

	// icache is a ring of recently executed task IDs; switching to a
	// task outside it pays the cold-switch penalty.
	icache    [6]proc.TaskID
	icacheLen int
	icachePos int

	usedInInterval bool

	// turboCounted and turboPending hold a physical core's standing in
	// its socket's turbo count (settle.go), on the core's representative:
	// the lower-numbered of its hardware threads.
	turboCounted, turboPending bool

	// runnable is what the core adds to its socket's SocketRunning
	// count as of the last placement flush (settle.go).
	runnable int
}

// Machine is one simulated server executing one workload under one
// scheduler/governor pair.
type Machine struct {
	cfg    Config
	eng    *sim.Engine
	spec   *machine.Spec
	topo   *machine.Topology
	gov    governor.Governor
	policy sched.Policy
	fm     *freqmodel.Model
	rng    *sim.Rand
	obs    *obs.Hub

	cores []coreState

	nextID    proc.TaskID
	liveTasks int
	started   bool
	finishAt  sim.Time

	// Placement bookkeeping.
	pendingSearch sim.Duration

	// Underload interval state (§5.2): cores touched and the maximum
	// simultaneous runnable count within the current 4 ms interval.
	curRunnable int
	maxRunnable int
	tickIndex   int

	// queuedTasks counts tasks sitting in run queues (curRunnable minus
	// the running ones), maintained at every queue mutation. The balance
	// scans (findBusiest, findBusiestOnDie, balancePass) early-out on it:
	// when no core has a waiter the answer is always "none", and in
	// lightly loaded runs that skips an O(cores) sweep on every idle
	// entry and balance tick.
	queuedTasks int

	// Per-tick scratch, allocated once.
	sockActive []int
	sockMaxF   []machine.FreqMHz
	sockPow    []float64 // energyPass: power drawn this tick

	// sibOf, sockOf and posOf cache each core's SMT sibling, socket and
	// position in its socket's core list (Topology.Core(c) copies the
	// whole descriptor, too heavy for the dispatch path); physReps holds
	// each socket's physical-core representatives, so a turbo-count
	// rescan visits each physical core once (its sibling only when the
	// representative is idle).
	sibOf    []machine.CoreID
	sockOf   []int
	posOf    []int
	physReps [][]machine.CoreID

	// settled is the bitset of cores the tick skips; turbo caches each
	// socket's turbo-budget count. touch keeps both honest (settle.go).
	settled []uint64
	turbo   []turboCache

	// idleWords and claimWords hold each socket's IdleMask and
	// ClaimedMask, maskWords words per socket; dirty is the bitset of
	// cores touched since the last flush, whose bits and SocketRunning
	// share the next placement query re-derives (settle.go).
	idleWords  []uint64
	claimWords []uint64
	maskWords  int
	dirty      []uint64

	// tickRun is the machine's tick runner; posting &m.tickRun re-arms
	// the tick without allocating anything per period.
	tickRun tickRunner

	// recFree heads the pooled event-record free-list (events.go).
	recFree *evRec //own:engine

	// sockLoads holds per-socket load sums cached at the last tick, the
	// stale domain statistics CFS placement consults; sockRunning holds
	// per-socket runnable counts, kept current by the placement flush.
	sockLoads   []float64
	sockRunning []int

	res *metrics.Result

	// bootCore is where root tasks are forked from.
	bootCore machine.CoreID

	// tickJitter, when positive, stretches each tick period by a
	// deterministic draw from [0, tickJitter) — fault injection's model
	// of timer noise.
	tickJitter sim.Duration

	// sampleTicks is the gauge-sampling period in ticks (0 = off); the
	// gauge pass piggybacks on the tick so sampling adds no engine
	// events, keeping quiescence detection and event order intact.
	sampleTicks int

	// nestSizes is the policy's nest-size view when it has one (the nest
	// scheduler), for the NestGauge sample.
	nestSizes nestSizer

	// underload is the §5.2 underload of the interval the last
	// underloadPass closed, for the gauge pass.
	underload int

	// gauge is the gauge pass's scratch, allocated only when sampling
	// is on.
	gauge *gaugeScratch

	// slice is the execution slice recordSlice emits by pointer; the
	// next slice overwrites it.
	slice obs.ExecSlice

	// onExit, when non-nil, observes every task exit (see OnExit).
	onExit func(*proc.Task)

	// tasks / inFlight back the invariant checker's machine sweep; both
	// stay nil (and cost nothing) unless Config.Check is set. inFlight
	// counts placements between core selection and enqueue per task.
	tasks    []*proc.Task
	inFlight map[proc.TaskID]int
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	if cfg.Spec == nil || cfg.Gov == nil || cfg.Policy == nil {
		panic("cpu: Config needs Spec, Gov and Policy")
	}
	eng := cfg.Engine
	if eng == nil {
		eng = sim.NewEngine()
	}
	m := &Machine{
		cfg:    cfg,
		eng:    eng,
		spec:   cfg.Spec,
		topo:   cfg.Spec.Topo,
		gov:    cfg.Gov,
		policy: cfg.Policy,
		fm:     freqmodel.New(cfg.Spec),
		rng:    sim.NewRand(cfg.Seed),
		obs:    cfg.Obs,
	}
	m.fm.SetObs(cfg.Obs, m.eng.Now)
	n := m.topo.NumCores()
	m.cores = make([]coreState, n)
	for i := range m.cores {
		m.cores[i].id = machine.CoreID(i)
		m.cores[i].lastActive = -sim.Second // long before the run starts
		m.cores[i].hwUtil = pelt.WithHalfLife(2 * sim.Millisecond)
		// The comp runner's pointer identity is stable: m.cores is sized
		// once and never reallocated.
		m.cores[i].comp = completionRunner{m: m, c: machine.CoreID(i)}
	}
	m.sibOf = make([]machine.CoreID, len(m.cores))
	loc := make([]int, 2*n)
	m.sockOf, m.posOf = loc[:n:n], loc[n:]
	for i := range m.cores {
		c := m.topo.Core(machine.CoreID(i))
		m.sibOf[i] = c.Sibling
		m.sockOf[i] = c.Socket
		m.posOf[i] = m.topo.PosInSocket(c.ID)
	}
	m.physReps = make([][]machine.CoreID, m.topo.NumSockets())
	m.turbo = make([]turboCache, m.topo.NumSockets())
	pp := m.topo.PhysPerSocket()
	pending := make([]machine.CoreID, m.topo.NumPhysical())
	for s := 0; s < m.topo.NumSockets(); s++ {
		m.physReps[s] = make([]machine.CoreID, 0, pp)
		// A socket's pending list holds each of its physical cores at
		// most once, so it never outgrows its share.
		m.turbo[s].pending = pending[s*pp : s*pp : (s+1)*pp]
		for _, c := range m.topo.SocketCores(s) {
			if m.physRep(c) == c {
				m.physReps[s] = append(m.physReps[s], c)
			}
		}
	}
	// One allocation holds the settled and dirty sets and both
	// placement masks.
	ns, nsock := sched.MaskWords(n), m.topo.NumSockets()
	m.maskWords = sched.MaskWords(len(m.topo.SocketCores(0)))
	nm := nsock * m.maskWords
	words := make([]uint64, 2*ns+2*nm)
	m.settled, m.dirty = words[:ns:ns], words[ns:2*ns:2*ns]
	if r := n % 64; r != 0 {
		m.settled[len(m.settled)-1] = ^uint64(0) << r // padding, never visited
	}
	m.idleWords = words[2*ns : 2*ns+nm : 2*ns+nm]
	m.claimWords = words[2*ns+nm:]
	for i := range m.cores {
		m.idleMask(m.sockOf[i]).Set(m.posOf[i]) // every core starts idle
	}
	m.tickRun = tickRunner{m: m}
	m.sockActive = make([]int, m.topo.NumSockets())
	m.sockMaxF = make([]machine.FreqMHz, m.topo.NumSockets())
	m.sockPow = make([]float64, m.topo.NumSockets())
	m.sockLoads = make([]float64, m.topo.NumSockets())
	m.sockRunning = make([]int, m.topo.NumSockets())
	m.res = &metrics.Result{
		MachineName: m.topo.Name(),
		Scheduler:   cfg.Policy.Name(),
		Governor:    cfg.Gov.Name(),
		Seed:        cfg.Seed,
		FreqHist:    metrics.NewHist(metrics.EdgesFor(cfg.Spec)),
	}
	if cfg.Check != nil {
		m.inFlight = make(map[proc.TaskID]int)
		cfg.Check.Bind(m, cfg.Policy)
		m.eng.OnStep(cfg.Check.Check)
	}
	if cfg.SampleEvery > 0 {
		m.sampleTicks = int((cfg.SampleEvery + sim.Tick - 1) / sim.Tick)
		if m.sampleTicks < 1 {
			m.sampleTicks = 1
		}
		m.gauge = &gaugeScratch{
			busy:   make([]int, m.topo.NumSockets()),
			online: make([]int, m.topo.NumSockets()),
		}
	}
	if ns, ok := cfg.Policy.(nestSizer); ok {
		m.nestSizes = ns
	}
	return m
}

// nestSizer is the structural view of a policy that maintains a nest
// (internal/core); the gauge pass samples it without the cpu package
// depending on any concrete policy.
type nestSizer interface {
	PrimarySize() int
	ReserveSize() int
}

// Engine exposes the event engine so workload drivers can schedule
// external events (request arrivals).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Checker returns the bound invariant checker (nil when the run checks
// nothing); workloads register domain probes against it.
func (m *Machine) Checker() *invariant.Checker { return m.cfg.Check }

// OnExit registers an additional task-exit observer (multi-application
// workloads use it to record per-application completion times).
func (m *Machine) OnExit(fn func(*proc.Task)) {
	prev := m.onExit
	m.onExit = func(t *proc.Task) {
		if prev != nil {
			prev(t)
		}
		fn(t)
	}
}

// Result returns the run's measurements (complete only after Run).
func (m *Machine) Result() *metrics.Result { return m.res }

// Spawn creates and places a root task (no parent) from the boot core.
func (m *Machine) Spawn(name string, b proc.Behavior) *proc.Task {
	t := m.newTask(name, b, nil)
	m.placeFork(nil, m.bootCore, t)
	return t
}

// newTaskUtil seeds a new task's utilisation, mirroring the kernel's
// post_init_entity_util_avg.
const newTaskUtil = 0.55

func (m *Machine) newTask(name string, b proc.Behavior, parent *proc.Task) *proc.Task {
	m.nextID++
	t := &proc.Task{
		ID:       m.nextID,
		Name:     name,
		Behavior: b,
		State:    proc.StateNew,
		Cur:      proc.NoCore,
		Last:     proc.NoCore,
		Prev2:    proc.NoCore,
		Parent:   parent,
		Created:  m.eng.Now(),
	}
	// A forked task inherits its parent's utilisation, as the kernel's
	// post_init_entity_util_avg seeds new tasks from the runqueue: the
	// children of a busy shell immediately look busy to schedutil.
	seed := newTaskUtil
	if parent != nil {
		if pu := parent.Util.Value(m.eng.Now()); pu > seed {
			seed = pu
		}
	}
	t.Util.Reset(m.eng.Now(), seed)
	m.liveTasks++
	if m.inFlight != nil {
		m.tasks = append(m.tasks, t)
	}
	return t
}

// Run executes until every task has exited or until the virtual-time
// limit (0 = no limit). It finalises and returns the result.
func (m *Machine) Run(limit sim.Time) *metrics.Result {
	if !m.started {
		m.started = true
		m.eng.PostRunAfter(sim.Tick, &m.tickRun)
	}
	m.eng.RunUntil(func() bool {
		if m.liveTasks == 0 {
			return true
		}
		if limit > 0 && m.eng.Now() >= limit {
			return true
		}
		// Quiescence guard: if no task can ever run again (everything
		// blocked on synchronisation with no pending timers), only the
		// tick remains in the queue — stop instead of ticking forever.
		return m.quiescent()
	})
	if m.liveTasks > 0 {
		m.res.SetCustom("truncated", 1)
		m.finishAt = m.eng.Now()
	}
	m.finalize()
	return m.res
}

// quiescent reports a deadlock: live tasks remain but none is runnable
// or sleeping on a timer, and no placement is in flight (the only queued
// events are housekeeping ticks).
func (m *Machine) quiescent() bool {
	if m.curRunnable > 0 {
		return false
	}
	// Sleeping tasks have timer events; placements and spin expiries are
	// also real events. The tick re-arms itself once per pass, so a
	// pending count above 1 means something real is scheduled.
	return m.eng.Pending() <= 1
}

func (m *Machine) finalize() {
	// Runs shorter than a tick never reached an energy pass; flush a
	// prorated final sample so energy is never zero for non-empty runs.
	if m.res.EnergyJ == 0 && m.finishAt > 0 {
		frac := m.finishAt.Seconds() / sim.Tick.Seconds()
		m.energyPass()
		m.res.EnergyJ *= frac
	}
	m.res.Runtime = m.finishAt
	secs := m.finishAt.Seconds()
	if secs > 0 {
		m.res.UnderloadPerSec = m.res.Underload / secs
		m.res.OverloadPerSec /= secs
	}
	if m.tickIndex > 0 {
		m.res.UnderloadAvg = m.res.Underload / float64(m.tickIndex)
	}
	if m.obs.Enabled() {
		m.res.Stats = &metrics.RunStats{
			Counters: m.obs.Snapshot(),
			Events:   m.obs.Events(),
		}
	}
}

// Workload drivers sometimes need a plain description of the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("%s / %s / %s", m.topo.Name(), m.policy.Name(), m.gov.Name())
}

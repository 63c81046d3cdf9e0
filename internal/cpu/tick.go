package cpu

import (
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sim"
)

// tick is the periodic scheduler + hardware update (250 Hz). Its
// per-core passes visit only unsettled cores, in ascending order, so
// float sums keep their order (settle.go); balancePass and gaugePass
// still visit every core.
func (m *Machine) tick() {
	now := m.eng.Now()
	m.tickIndex++

	m.preemptPass(now)
	m.freqAndAccountingPass(now)
	m.energyPass()
	m.underloadPass(now)
	m.balancePass()
	m.refreshSocketLoads(now)
	m.gaugePass(now)

	if m.liveTasks > 0 {
		d := sim.Tick
		// Injected timer noise: stretch the period by a deterministic
		// draw. The RNG is only consulted while jitter is active, so
		// fault-free runs are byte-identical to pre-fault builds.
		if m.tickJitter > 0 {
			d += m.rng.Duration(0, m.tickJitter)
		}
		m.eng.PostRunAfter(d, &m.tickRun)
	}
}

// timeSlice is the preemption quantum checked at each tick.
const timeSlice = 6 * sim.Millisecond

// preemptPass rotates cores whose current task exhausted its time slice
// while others wait, CFS-style (lowest vruntime next).
func (m *Machine) preemptPass(now sim.Time) {
	for i := m.nextUnsettled(0); i < len(m.cores); i = m.nextUnsettled(i + 1) {
		cs := &m.cores[i]
		if cs.cur == nil || len(cs.queue) == 0 {
			continue
		}
		if now-cs.curStart < timeSlice {
			continue
		}
		t := cs.cur
		m.accountProgress(cs.id)
		m.recordSlice(t, cs.id, cs.curStart, now)
		m.eng.Cancel(&cs.completion)
		m.touch(cs.id)
		cs.cur = nil
		t.State = proc.StateRunnable
		t.LastWoken = -1 // requeue, not a wakeup
		t.EnqueuedAt = now
		t.Util.SetRunning(now, false)
		cs.queue = append(cs.queue, t)
		m.queuedTasks++
		m.res.Counters.Preemptions++
		m.scheduleIn(cs.id)
	}
}

// activeWindow is the lookback the hardware uses to count a socket's
// active cores for the turbo budget. Tasks bouncing across many cores
// keep them all "recently active", lowering every core's cap — the
// mechanism that punishes CFS's dispersal even when only a couple of
// tasks run at any instant.
const activeWindow = 20 * sim.Millisecond

// freqAndAccountingPass books progress at the old frequencies, lets the
// hardware pick new ones, and re-arms completion events.
func (m *Machine) freqAndAccountingPass(now sim.Time) {
	// Count recently active physical cores per socket for the turbo
	// budget. The activity stamps refreshed below cannot change the
	// count: only running or spinning cores get one, and those count
	// anyway.
	for s := range m.sockActive {
		m.sockActive[s] = m.activePhysOnSocket(s, now)
	}

	for i := m.nextUnsettled(0); i < len(m.cores); i = m.nextUnsettled(i + 1) {
		cs := &m.cores[i]
		if cs.offline {
			continue // parked by the hotplug path; nothing to update
		}
		active := cs.cur != nil || cs.spinUntil > now
		if active {
			cs.lastActive = now
		}
		if cs.spinUntil > now {
			m.res.Counters.SpinTicksTotal++
		}
		m.accountProgress(cs.id) // at the outgoing frequency
		util := cs.util.Value(now)
		req := m.gov.Request(m.spec, util, active)
		if active {
			if h := m.obs; h.Enabled() {
				h.Emit(obs.GovernorRequest{
					T: now, Core: int(cs.id), Governor: m.gov.Name(), Util: util,
					SuggestMHz: int(req.Suggestion), FloorMHz: int(req.Floor),
					EnergyAware: req.EnergyAware,
				})
			}
		}
		sock := m.sockOf[cs.id]
		m.fm.TickUpdate(cs.id, active, req, m.sockActive[sock], cs.hwUtil.Value(now))
		if cs.cur != nil {
			m.scheduleCompletion(cs.id)
			cs.usedInInterval = true
		}
	}
}

// energyPass integrates socket power over the tick. Socket power follows
// the highest-frequency active core (§5.2): the shared voltage rail is
// set by the fastest core, and each active core's dynamic power scales
// with its frequency times that voltage squared. Settled cores draw
// nothing beyond the socket's idle power, so only unsettled ones are
// visited; each socket still sums its cores in ascending order.
func (m *Machine) energyPass() {
	for s := range m.sockMaxF {
		m.sockMaxF[s] = 0
	}
	now := m.eng.Now()
	for i := m.nextUnsettled(0); i < len(m.cores); i = m.nextUnsettled(i + 1) {
		cs := &m.cores[i]
		if cs.cur == nil && cs.spinUntil <= now {
			continue
		}
		s := m.sockOf[cs.id]
		if f := m.fm.Cur(cs.id); f > m.sockMaxF[s] {
			m.sockMaxF[s] = f
		}
	}
	for s, f := range m.sockMaxF {
		m.sockPow[s] = m.spec.IdleSocketW
		if f > 0 {
			m.sockPow[s] += float64(m.spec.UncoreFreqW * f.GHz())
		}
	}
	// A spinning idle loop retires almost no µops; its dynamic power is a
	// small fraction of real work at the same frequency.
	const spinDynFactor = 0.15
	for i := m.nextUnsettled(0); i < len(m.cores); i = m.nextUnsettled(i + 1) {
		cs := &m.cores[i]
		if cs.cur == nil && cs.spinUntil <= now {
			continue
		}
		s := m.sockOf[cs.id]
		vRel := m.sockMaxF[s].GHz() / m.spec.Nominal.GHz()
		v2 := vRel * vRel
		if cs.cur != nil {
			m.sockPow[s] += m.spec.ActiveBaseW + float64(m.spec.DynPerGHzW*m.fm.Cur(cs.id).GHz()*v2)
		} else {
			m.sockPow[s] += m.spec.ActiveBaseW + float64(spinDynFactor*m.spec.DynPerGHzW*m.fm.Cur(cs.id).GHz()*v2)
		}
	}
	tickSec := sim.Tick.Seconds()
	for _, p := range m.sockPow {
		m.res.EnergyJ += float64(p * tickSec)
	}
}

// gaugeScratch is the gauge pass's working state: per-socket tallies,
// and one value per gauge kind that the pass refills and emits by
// pointer for every gauge of a batch. Recorders copy what they keep
// (see obs.Recorder), so a sampled tick allocates nothing.
type gaugeScratch struct {
	busy, online []int // per socket

	core      obs.CoreGauge
	nest      obs.NestGauge
	socket    obs.SocketGauge
	underload obs.UnderloadGauge
}

// gaugePass emits the periodic gauge batch (Config.SampleEvery) through
// the obs hub: one CoreGauge per core in ascending order, a NestGauge
// when the policy maintains one, one SocketGauge per socket, then the
// UnderloadGauge of the interval underloadPass just closed. Each gauge
// goes out as a pointer into m.gauge, which the next gauge of its kind
// overwrites. The pass only observes — no simulation state, RNG draw or
// engine event is touched — so sampled and unsampled runs produce
// byte-identical results.
func (m *Machine) gaugePass(now sim.Time) {
	h := m.obs
	if !h.Enabled() {
		return
	}
	if m.sampleTicks == 0 || m.tickIndex%m.sampleTicks != 0 {
		return
	}
	g := m.gauge
	for s := range g.busy {
		g.busy[s] = 0
		g.online[s] = 0
	}
	for i := range m.cores {
		cs := &m.cores[i]
		state := "idle"
		switch {
		case cs.offline:
			state = "offline"
		case cs.cur != nil:
			state = "busy"
		case cs.spinUntil > now:
			state = "spin"
		}
		if !cs.offline {
			s := m.sockOf[cs.id]
			g.online[s]++
			if cs.cur != nil {
				g.busy[s]++
			}
		}
		g.core = obs.CoreGauge{
			T: now, Core: int(cs.id), State: state,
			FreqMHz: int(m.fm.Cur(cs.id)), Queue: len(cs.queue),
		}
		h.Emit(&g.core)
	}
	if m.nestSizes != nil {
		g.nest = obs.NestGauge{T: now, Primary: m.nestSizes.PrimarySize(), Reserve: m.nestSizes.ReserveSize()}
		h.Emit(&g.nest)
	}
	for s := 0; s < m.topo.NumSockets(); s++ {
		g.socket = obs.SocketGauge{T: now, Socket: s, Busy: g.busy[s], Online: g.online[s]}
		h.Emit(&g.socket)
	}
	g.underload = obs.UnderloadGauge{T: now, Underload: m.underload}
	h.Emit(&g.underload)
}

// underloadPass closes the 4 ms underload interval of §5.2: cores used
// minus the maximum simultaneous runnable count, when positive, measures
// placements onto long-idle cores instead of reusable warm ones. It also
// tracks overload (tasks queued while other cores sit idle). Settled
// cores are idle, unused and queue nothing, so they enter as a count.
func (m *Machine) underloadPass(now sim.Time) {
	used := 0
	waiting := 0
	idle := m.settledCount()
	for i := m.nextUnsettled(0); i < len(m.cores); i = m.nextUnsettled(i + 1) {
		cs := &m.cores[i]
		if cs.usedInInterval {
			used++
			cs.usedInInterval = false
		}
		waiting += len(cs.queue)
		// Offline cores are not idle capacity: counting them would turn
		// every hotplug window into phantom overload.
		if cs.cur == nil && !cs.offline {
			idle++
		}
	}
	m.underload = max(used-m.maxRunnable, 0)
	m.res.Underload += float64(m.underload)
	if waiting > 0 && idle > 0 {
		ov := waiting
		if idle < ov {
			ov = idle
		}
		m.res.OverloadPerSec += float64(ov) // normalised in finalize
	}
	m.maxRunnable = m.curRunnable
}

// balanceEvery is the idle-balance period in ticks per core.
const balanceEvery = 2

// balancePass is a model of CFS idle balancing: an idle core periodically
// pulls a waiting task from the longest queue, same die first. Overloads
// resolve gradually — a few ticks, as on real machines — rather than
// instantly, which is what lets the paper's NAS-on-E7 fork overloads be
// visible at all.
func (m *Machine) balancePass() {
	if m.queuedTasks == 0 {
		return // no core has a waiter; every findBusiest would say -1
	}
	for i := range m.cores {
		cs := &m.cores[i]
		if cs.offline || cs.cur != nil || len(cs.queue) > 0 || cs.claimed {
			continue
		}
		if (m.tickIndex+i)%balanceEvery != 0 {
			continue
		}
		victim := m.findBusiest(cs.id)
		if victim < 0 {
			continue
		}
		vs := &m.cores[victim]
		// Cross-die pulls are damped as in the kernel (migration cost,
		// imbalance_pct): a briefly waiting task does not justify a NUMA
		// migration — which is why CFS leaves Rodinia's stacked
		// hyperthread pairs, whose waiters rotate every time slice, on
		// one socket (§5.5). A task stuck behind a long computation does
		// get pulled.
		if !m.topo.SameDie(cs.id, victim) && len(vs.queue) < 2 {
			oldest := sim.Time(0)
			now := m.eng.Now()
			for _, q := range vs.queue {
				if age := now - q.EnqueuedAt; age > oldest {
					oldest = age
				}
			}
			if oldest < 2*sim.Tick {
				continue
			}
		}
		// Steal a cache-cold waiter, if one exists.
		t, idx := m.coldestWaiter(vs)
		if t == nil {
			continue
		}
		m.touch(victim)
		vs.queue = append(vs.queue[:idx], vs.queue[idx+1:]...)
		m.queuedTasks--
		m.curRunnable-- // enqueue below re-adds
		m.res.Counters.LoadBalances++
		if h := m.obs; h.Enabled() {
			h.Emit(obs.TickBalance{
				T: m.eng.Now(), From: int(victim), To: int(cs.id),
				Task: int(t.ID), TaskName: t.Name, Kind2: "periodic",
			})
		}
		m.enqueue(t, cs.id)
	}
}

// cacheHotWindow mirrors sysctl_sched_migration_cost: a task that ran
// within it is considered cache-hot and is not migrated.
const cacheHotWindow = 500 * sim.Microsecond

// coldestWaiter picks a migratable (not cache-hot) task from cs's queue,
// preferring the one that has not run for the longest.
func (m *Machine) coldestWaiter(cs *coreState) (*proc.Task, int) {
	now := m.eng.Now()
	var best *proc.Task
	bi := -1
	for i, q := range cs.queue {
		if now-q.LastRan < cacheHotWindow {
			continue
		}
		if best == nil || q.LastRan < best.LastRan {
			best = q
			bi = i
		}
	}
	return best, bi
}

// refreshSocketLoads recomputes the per-socket load cache policies read
// through SocketLoads. A settled core adds exactly 0. As the tick's last
// per-core pass, it also admits the cores that now meet the settled
// predicate to the settled set.
func (m *Machine) refreshSocketLoads(now sim.Time) {
	for s := range m.sockLoads {
		m.sockLoads[s] = 0
	}
	for i := m.nextUnsettled(0); i < len(m.cores); i = m.nextUnsettled(i + 1) {
		cs := &m.cores[i]
		m.sockLoads[m.sockOf[cs.id]] += cs.util.Value(now) + float64(len(cs.queue))
		if m.settles(cs.id, now) {
			m.settle(cs.id)
		}
	}
}

// findBusiestOnDie locates a core on from's die with both a running task
// and waiting ones; -1 if none.
func (m *Machine) findBusiestOnDie(from machine.CoreID) machine.CoreID {
	if m.queuedTasks == 0 {
		return -1
	}
	best := machine.CoreID(-1)
	bestLen := 0
	for _, c := range m.topo.SocketCores(m.topo.Socket(from)) {
		cs := &m.cores[c]
		if cs.cur != nil && len(cs.queue) > bestLen {
			best = c
			bestLen = len(cs.queue)
		}
	}
	return best
}

// findBusiest locates a core with both a running task and waiting ones,
// preferring the idle core's own die; -1 if none.
func (m *Machine) findBusiest(from machine.CoreID) machine.CoreID {
	if m.queuedTasks == 0 {
		return -1
	}
	best := machine.CoreID(-1)
	bestLen := 0
	for _, s := range m.topo.SocketOrder(from) {
		for _, c := range m.topo.SocketCores(s) {
			cs := &m.cores[c]
			if cs.cur != nil && len(cs.queue) > bestLen {
				best = c
				bestLen = len(cs.queue)
			}
		}
		if best >= 0 {
			return best
		}
	}
	return best
}

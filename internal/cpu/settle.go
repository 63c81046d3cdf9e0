package cpu

// This file holds the bookkeeping that lets the tick skip idle cores
// and placement skip whole-socket scans: the settled set, the
// turbo-budget count cache, the per-socket idle and claimed masks with
// the SocketRunning counts, and the one hook (touch) that keeps all of
// them honest.
//
// A settled core is online and idle, with an empty queue, no claim, no
// spin and no use in the current underload interval; both of its PELT
// signals are exactly 0; and an idle TickUpdate leaves its clock where
// it is. For such a core every per-core tick pass is an exact no-op, so
// the passes skip it (docs/PERFORMANCE.md, "Idle cores and spinners").
// Cores join the set at the end of the tick (refreshSocketLoads) and
// leave it through touch, which every write that could give the tick
// work again calls.

import (
	"math"
	"math/bits"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
)

// turboCache is one socket's cached activePhysOnSocket count. Between
// full rescans, only the physical cores a touch marked pending are
// re-evaluated, so a dispatch costs one or two thread tests, not a
// socket scan. A full rescan runs once the clock reaches validUntil:
// the earliest instant at which a thread counted only through its spin
// or its activity window can drop out.
type turboCache struct {
	count      int
	validUntil sim.Time
	pending    []machine.CoreID // representatives of the touched physical cores
}

// touch is the hook every write to a core's cur, queue, spinUntil or
// claimed calls, as do hotplug, throttling and the lastActive reset of
// OfflineCore. It takes the core out of the settled set, marks its
// physical core for re-evaluation in the turbo count, and marks the core
// dirty for the next placement flush. The tick's refresh of lastActive on a
// running or spinning core needs no touch: that core is counted
// already, and a later lastActive only postpones the instant it could
// drop out. A touch may come before or after its write, as long as no
// placement query runs between the two.
func (m *Machine) touch(c machine.CoreID) {
	w, b := c>>6, uint64(1)<<(c&63)
	m.settled[w] &^= b
	m.dirty[w] |= b
	if r := &m.cores[m.physRep(c)]; !r.turboPending {
		r.turboPending = true
		tc := &m.turbo[m.sockOf[c]]
		tc.pending = append(tc.pending, r.id)
	}
}

// idleMask and claimMask return socket s's stored masks, unflushed.
func (m *Machine) idleMask(s int) sched.Mask {
	return m.idleWords[s*m.maskWords : (s+1)*m.maskWords]
}

func (m *Machine) claimMask(s int) sched.Mask {
	return m.claimWords[s*m.maskWords : (s+1)*m.maskWords]
}

// flushPlacement re-derives the idle and claimed bits and the
// SocketRunning share of every core touched since the last flush. The
// placement queries (IdleMask, ClaimedMask, SocketRunning) call it, so
// a burst of writes between two placements costs one re-derivation per
// core, and a query with nothing touched reads a few zero words.
func (m *Machine) flushPlacement() {
	for dw, x := range m.dirty {
		if x == 0 {
			continue
		}
		m.dirty[dw] = 0
		for ; x != 0; x &= x - 1 {
			m.flushCore(machine.CoreID(dw<<6 + bits.TrailingZeros64(x)))
		}
	}
}

// flushCore re-derives core c's idle and claimed bits and its
// SocketRunning share.
func (m *Machine) flushCore(c machine.CoreID) {
	cs := &m.cores[c]
	s, i := m.sockOf[c], m.posOf[c]
	w, b := s*m.maskWords+i>>6, uint64(1)<<(i&63)
	if m.IsIdle(c) {
		m.idleWords[w] |= b
	} else {
		m.idleWords[w] &^= b
	}
	if cs.claimed {
		m.claimWords[w] |= b
	} else {
		m.claimWords[w] &^= b
	}
	n := cs.runnableNow()
	m.sockRunning[s] += n - cs.runnable
	cs.runnable = n
}

// runnableNow is what the core adds to its socket's SocketRunning count:
// its running and queued tasks, plus an in-flight placement, which
// counts as arriving load.
func (cs *coreState) runnableNow() int {
	n := len(cs.queue)
	if cs.cur != nil {
		n++
	}
	if cs.claimed {
		n++
	}
	return n
}

// physRep returns the representative of c's physical core: the
// lower-numbered of its hardware threads.
func (m *Machine) physRep(c machine.CoreID) machine.CoreID { return min(c, m.sibOf[c]) }

// nextUnsettled returns the first core at or after c that is not
// settled, or len(m.cores). Each call reads the set afresh, so a pass
// iterating with it visits a core that a touch earlier in the same pass
// un-settled — exactly the cores whose visit is not a no-op. The bits
// past the last core are set (New), so no search runs off the end.
func (m *Machine) nextUnsettled(c int) int {
	w := c >> 6
	if w >= len(m.settled) {
		return len(m.cores)
	}
	if free := ^m.settled[w] >> (c & 63); free != 0 {
		return c + bits.TrailingZeros64(free)
	}
	for w++; w < len(m.settled); w++ {
		if free := ^m.settled[w]; free != 0 {
			return w<<6 + bits.TrailingZeros64(free)
		}
	}
	return len(m.cores)
}

// settles reports whether core c meets the settled predicate now. The
// cheap structural tests run first; the clock test calls the same step
// TickUpdate does, so the two cannot disagree on any architecture.
func (m *Machine) settles(c machine.CoreID, now sim.Time) bool {
	cs := &m.cores[c]
	if cs.offline || cs.cur != nil || len(cs.queue) > 0 || cs.claimed ||
		cs.spinUntil > now || cs.usedInInterval {
		return false
	}
	if !cs.util.Zero() || !cs.hwUtil.Zero() {
		return false
	}
	// A settled core's utilisation is 0, so this is the request the
	// accounting pass would make for it.
	return m.fm.IdleFixed(c, m.gov.Request(m.spec, 0, false))
}

// settle adds core c to the settled set.
func (m *Machine) settle(c machine.CoreID) {
	m.settled[c>>6] |= uint64(1) << (c & 63)
}

// settledCount returns the size of the settled set, less the padding
// bits past the last core (New).
func (m *Machine) settledCount() int {
	n := -(len(m.settled)<<6 - len(m.cores))
	for _, x := range m.settled {
		n += bits.OnesCount64(x)
	}
	return n
}

// activePhysOnSocket counts physical cores on socket s that were active
// within the hardware's lookback window — the basis of the turbo budget.
func (m *Machine) activePhysOnSocket(s int, now sim.Time) int {
	tc := &m.turbo[s]
	horizon := now - activeWindow
	if now >= tc.validUntil {
		tc.count, tc.validUntil = 0, math.MaxInt64
		for _, c := range m.physReps[s] {
			on := m.physActive(c, now, horizon, &tc.validUntil)
			m.cores[c].turboCounted = on
			if on {
				tc.count++
			}
		}
	} else {
		for _, c := range tc.pending {
			cs := &m.cores[c]
			if on := m.physActive(c, now, horizon, &tc.validUntil); on != cs.turboCounted {
				cs.turboCounted = on
				if on {
					tc.count++
				} else {
					tc.count--
				}
			}
		}
	}
	for _, c := range tc.pending {
		m.cores[c].turboPending = false
	}
	tc.pending = tc.pending[:0]
	return tc.count
}

// physActive reports whether thread c or its SMT sibling counts toward
// the turbo budget, folding into until the instant the thread that
// counts stops counting, when only time can end that.
func (m *Machine) physActive(c machine.CoreID, now, horizon sim.Time, until *sim.Time) bool {
	if m.threadActive(c, now, horizon, until) {
		return true
	}
	sib := m.sibOf[c]
	return sib != c && m.threadActive(sib, now, horizon, until)
}

// threadActive is physActive for one hardware thread.
func (m *Machine) threadActive(c machine.CoreID, now, horizon sim.Time, until *sim.Time) bool {
	cs := &m.cores[c]
	if cs.cur != nil {
		return true
	}
	if cs.spinUntil <= now && cs.lastActive < horizon {
		return false
	}
	*until = min(*until, max(cs.spinUntil, cs.lastActive+activeWindow+1))
	return true
}

// Settled implements invariant.IdleAccounting: whether core c is in the
// settled set, and whether the settled predicate holds for it now.
func (m *Machine) Settled(c machine.CoreID) (inSet, holds bool) {
	inSet = m.settled[c>>6]&(uint64(1)<<(c&63)) != 0
	return inSet, m.settles(c, m.eng.Now())
}

// SettledCount implements invariant.IdleAccounting: the size of the
// settled set, which underloadPass counts as idle.
func (m *Machine) SettledCount() int { return m.settledCount() }

// TurboCount implements invariant.IdleAccounting: the count
// activePhysOnSocket would return for socket s now, and the count a
// full scan gives. Neither touches the cache.
func (m *Machine) TurboCount(s int) (served, scanned int) {
	now := m.eng.Now()
	horizon := now - activeWindow
	var until sim.Time // drop-out times land here, not in the cache
	for _, c := range m.physReps[s] {
		if m.physActive(c, now, horizon, &until) {
			scanned++
		}
	}
	tc := &m.turbo[s]
	if now >= tc.validUntil {
		return scanned, scanned
	}
	served = tc.count
	for _, c := range tc.pending {
		on, counted := m.physActive(c, now, horizon, &until), m.cores[c].turboCounted
		switch {
		case on && !counted:
			served++
		case !on && counted:
			served--
		}
	}
	return served, scanned
}

// IdleBits implements invariant.PlacementAccounting: core c's idle and
// claimed bits as the next placement query would read them, and as its
// state gives them afresh. A dirty core reads afresh; no call flushes.
func (m *Machine) IdleBits(c machine.CoreID) (servedIdle, servedClaimed, idle, claimed bool) {
	cs := &m.cores[c]
	idle, claimed = m.IsIdle(c), cs.claimed
	if m.dirty[c>>6]&(uint64(1)<<(c&63)) != 0 {
		return idle, claimed, idle, claimed
	}
	s, i := m.sockOf[c], m.posOf[c]
	return m.idleMask(s).Has(i), m.claimMask(s).Has(i), idle, claimed
}

// RunningCount implements invariant.PlacementAccounting: the count
// SocketRunning would return for socket s now, and a full recount of
// the socket's queues, running tasks and claims. Neither flushes.
func (m *Machine) RunningCount(s int) (served, counted int) {
	served = m.sockRunning[s]
	for _, c := range m.topo.SocketCores(s) {
		cs := &m.cores[c]
		if m.dirty[c>>6]&(uint64(1)<<(c&63)) != 0 {
			served += cs.runnableNow() - cs.runnable
		}
		counted += cs.runnableNow()
	}
	return served, counted
}

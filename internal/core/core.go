// Package core implements Nest, the paper's contribution (§3): a task
// placement policy that keeps tasks close together on warm cores.
//
// Nest maintains two sets of cores. The primary nest holds cores in use
// or recently used; the reserve nest holds cores demoted from the primary
// or on probation after being chosen by CFS. Placement searches the
// primary nest, then the reserve nest, then falls back to CFS (Figure 1).
// Idle cores in the nest spin briefly to stay warm (§3.2); tasks attach
// to cores they used twice in a row (§3.3); placements are serialised per
// core with a claim flag, and wakeups become work conserving across dies
// (§3.4).
package core

import (
	"repro/internal/cfs"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Config carries the Table 1 parameters and the feature toggles the
// paper's ablation studies (§5.2, §5.3, §5.4) exercise.
type Config struct {
	// PRemove is the idle delay before a primary core becomes eligible
	// for nest compaction (Table 1: 2 ticks = 8 ms).
	PRemove sim.Duration
	// RMax is the maximum size of the reserve nest (Table 1: 5).
	RMax int
	// RImpatient is the number of successive previous-core placement
	// failures tolerated before a task turns impatient (Table 1: 2).
	RImpatient int
	// SMax is the maximum idle spin duration (Table 1: 2 ticks = 8 ms).
	SMax sim.Duration

	// Ablation toggles.
	DisableReserve          bool // CFS-chosen cores join the primary nest directly
	DisableCompaction       bool // primary cores are never demoted for idleness
	DisableSpin             bool // the idle process never spins
	DisableAttach           bool // ignore the size-2 core history
	DisableWorkConservation bool // keep CFS's die-local wakeup search
	DisableImpatience       bool // never expand the nest for bouncing tasks
	DisableClaimCheck       bool // ignore the placement flag during searches
}

// DefaultConfig returns the Table 1 parameter values.
func DefaultConfig() Config {
	return Config{
		PRemove:    2 * sim.Tick,
		RMax:       5,
		RImpatient: 2,
		SMax:       2 * sim.Tick,
	}
}

// Policy is the Nest scheduler.
type Policy struct {
	cfg  Config
	cfs  *cfs.Policy
	init bool
	h    *obs.Hub // the machine's hub, read by ensure's first call; nil-safe

	primary  coreSet
	lastUsed []sim.Time
	nPrimary int

	reserve  coreSet
	nReserve int

	// cand is the nest searches' scratch mask: one socket's nest members
	// that can take a placement.
	cand sched.Mask

	// evicted marks cores pushed out of the nests entirely (compaction
	// or exit demotion past a full reserve). An evicted core loses the
	// previous-core fast path until it re-enters a nest: its owner must
	// search, which is what shrinks a sleepy application onto the
	// remaining warm cores. Cores that never joined a nest (the NAS
	// steady state) are unaffected.
	evicted []bool

	// startCore anchors reserve-nest scans: the core on which the system
	// call that started Nest ran (§3.1), here the first placement's
	// reference core.
	startCore machine.CoreID
	haveStart bool
}

// coreSet is a set of cores kept as one sched.Mask per socket, indexed
// by position in SocketCores, so a nest search can combine a socket's
// members with the machine's idle mask in whole words. The sockets'
// masks lie end to end in words, mw words each; bitOf maps a core to its
// bit there.
type coreSet struct {
	words []uint64
	bitOf []int
	mw    int
}

func (cs coreSet) has(c machine.CoreID) bool {
	i := cs.bitOf[c]
	return cs.words[i>>6]&(1<<(i&63)) != 0
}

func (cs coreSet) add(c machine.CoreID) {
	i := cs.bitOf[c]
	cs.words[i>>6] |= 1 << (i & 63)
}

func (cs coreSet) remove(c machine.CoreID) {
	i := cs.bitOf[c]
	cs.words[i>>6] &^= 1 << (i & 63)
}

// socket returns socket s's members.
func (cs coreSet) socket(s int) sched.Mask { return cs.words[s*cs.mw : (s+1)*cs.mw] }

// taskData is Nest's per-task state.
type taskData struct {
	impatience int
}

func dataOf(t *proc.Task) *taskData {
	if d, ok := t.SchedData.(*taskData); ok {
		return d
	}
	d := &taskData{}
	t.SchedData = d
	return d
}

// New returns a Nest policy. Zero-valued Table 1 parameters take their
// defaults; toggles are honoured as given.
func New(cfg Config) *Policy {
	def := DefaultConfig()
	if cfg.PRemove == 0 {
		cfg.PRemove = def.PRemove
	}
	if cfg.RMax == 0 {
		cfg.RMax = def.RMax
	}
	if cfg.RImpatient == 0 {
		cfg.RImpatient = def.RImpatient
	}
	if cfg.SMax == 0 {
		cfg.SMax = def.SMax
	}
	fallback := cfs.New(cfs.Config{
		WorkConservingWakeup: !cfg.DisableWorkConservation,
		RespectClaims:        !cfg.DisableClaimCheck,
	})
	return &Policy{cfg: cfg, cfs: fallback}
}

// Default returns Nest with the paper's Table 1 parameters.
func Default() *Policy { return New(DefaultConfig()) }

// Name implements sched.Policy.
func (p *Policy) Name() string { return "nest" }

// Config returns the active configuration (for reporting).
func (p *Policy) Config() Config { return p.cfg }

// PrimarySize returns the current primary nest size (for tests and
// introspection).
func (p *Policy) PrimarySize() int { return p.nPrimary }

// ReserveSize returns the current reserve nest size.
func (p *Policy) ReserveSize() int { return p.nReserve }

// InPrimary reports whether c is in the primary nest.
func (p *Policy) InPrimary(c machine.CoreID) bool {
	return p.init && p.primary.has(c)
}

// InReserve reports whether c is in the reserve nest.
func (p *Policy) InReserve(c machine.CoreID) bool {
	return p.init && p.reserve.has(c)
}

func (p *Policy) ensure(m sched.Machine, ref machine.CoreID) {
	if !p.init {
		topo := m.Topo()
		n := topo.NumCores()
		p.lastUsed = make([]sim.Time, n)
		p.evicted = make([]bool, n)
		// One allocation holds both nests' masks and the scratch mask.
		ns, mw := topo.NumSockets(), sched.MaskWords(len(topo.SocketCores(0)))
		words := make([]uint64, (2*ns+1)*mw)
		bitOf := make([]int, n)
		for c := range bitOf {
			bitOf[c] = topo.Socket(machine.CoreID(c))*mw<<6 + topo.PosInSocket(machine.CoreID(c))
		}
		p.primary = coreSet{words: words[: ns*mw : ns*mw], bitOf: bitOf, mw: mw}
		p.reserve = coreSet{words: words[ns*mw : 2*ns*mw : 2*ns*mw], bitOf: bitOf, mw: mw}
		p.cand = words[2*ns*mw:]
		// The machine's hub is fixed for its run, so it is read once.
		p.h = m.Obs()
		p.init = true
	}
	if !p.haveStart {
		p.startCore = ref
		p.haveStart = true
	}
}

func (p *Policy) addPrimary(c machine.CoreID, now sim.Time, reason string) {
	p.evicted[c] = false
	if p.primary.has(c) {
		p.lastUsed[c] = now
		return
	}
	if p.reserve.has(c) {
		p.reserve.remove(c)
		p.nReserve--
	}
	p.primary.add(c)
	p.lastUsed[c] = now
	p.nPrimary++
	if h := p.h; h.Enabled() {
		h.Emit(obs.NestExpand{
			T: now, Core: int(c), Primary: p.nPrimary, Reserve: p.nReserve,
			Reason: reason,
		})
	}
}

// demote moves a primary core to the reserve nest, or drops it entirely
// when the reserve is full (§3.1).
func (p *Policy) demote(c machine.CoreID, now sim.Time, reason string) {
	if !p.primary.has(c) {
		return
	}
	p.primary.remove(c)
	p.nPrimary--
	to := "evicted"
	if !p.cfg.DisableReserve && p.nReserve < p.cfg.RMax && !p.reserve.has(c) {
		p.reserve.add(c)
		p.nReserve++
		to = "reserve"
	} else {
		p.evicted[c] = true
	}
	if h := p.h; h.Enabled() {
		h.Emit(obs.NestCompact{
			T: now, Core: int(c), Primary: p.nPrimary, Reserve: p.nReserve,
			To: to, Reason: reason,
		})
	}
}

func (p *Policy) addReserve(c machine.CoreID) {
	if p.reserve.has(c) || p.primary.has(c) || p.nReserve >= p.cfg.RMax {
		return
	}
	p.evicted[c] = false
	p.reserve.add(c)
	p.nReserve++
	p.h.Count("nest.reserve_add", 1)
}

// usable reports whether an idle core can receive a placement, honouring
// the §3.4 claim flag.
func (p *Policy) usable(m sched.Machine, c machine.CoreID) bool {
	if !m.IsIdle(c) {
		return false
	}
	if !p.cfg.DisableClaimCheck && m.Claimed(c) {
		return false
	}
	return true
}

// scanStart is the position at which a wrap scan of socket s from core
// from begins: from's own position when it lies on s, else 0, as in
// Topology.ScanFrom.
func scanStart(topo *machine.Topology, s int, from machine.CoreID) int {
	if topo.Socket(from) == s {
		return topo.PosInSocket(from)
	}
	return 0
}

// candidates returns socket s's members of a nest that can take a
// placement: idle and, unless the claim check is off, unclaimed (the
// usable test).
func (p *Policy) candidates(m sched.Machine, s int, members sched.Mask) sched.Mask {
	idle := m.IdleMask(s)
	cand := p.cand
	if p.cfg.DisableClaimCheck {
		for w := range cand {
			cand[w] = members[w] & idle[w]
		}
		return cand
	}
	claimed := m.ClaimedMask(s)
	for w := range cand {
		cand[w] = members[w] & idle[w] &^ claimed[w]
	}
	return cand
}

// searchPrimary scans the primary nest, same die as ref first, wrapping
// in numerical order from ref (§3.1). Idle cores past their compaction
// deadline are demoted instead of used. Every primary core the scan
// passes counts as examined, usable or not.
func (p *Policy) searchPrimary(m sched.Machine, ref machine.CoreID, examined *int) (machine.CoreID, bool) {
	topo := m.Topo()
	now := m.Now()
	for _, s := range topo.SocketOrder(ref) {
		cores, start := topo.SocketCores(s), scanStart(topo, s, ref)
		n, members := len(cores), p.primary.socket(s)
		cand := p.candidates(m, s, members)
		for from := 0; ; {
			off := cand.NextWrap(start, n, from, n)
			if off < 0 {
				*examined += members.CountWrap(start, n, from, n)
				break
			}
			*examined += members.CountWrap(start, n, from, off+1)
			c := cores[(start+off)%n]
			if !p.cfg.DisableCompaction && now-p.lastUsed[c] > p.cfg.PRemove {
				// Compaction: a task tried to use a stale core (§3.1).
				p.demote(c, now, "idle_timeout")
				from = off + 1
				continue
			}
			p.lastUsed[c] = now
			return c, true
		}
	}
	return 0, false
}

// searchReserve scans the reserve nest, same die as ref first, wrapping
// in numerical order from the fixed start core (§3.1).
func (p *Policy) searchReserve(m sched.Machine, ref machine.CoreID, examined *int) (machine.CoreID, bool) {
	topo := m.Topo()
	for _, s := range topo.SocketOrder(ref) {
		cores, start := topo.SocketCores(s), scanStart(topo, s, p.startCore)
		n, members := len(cores), p.reserve.socket(s)
		if off := p.candidates(m, s, members).NextWrap(start, n, 0, n); off >= 0 {
			*examined += members.CountWrap(start, n, 0, off+1)
			return cores[(start+off)%n], true
		}
		*examined += members.Count(0, n)
	}
	return 0, false
}

// emitPlacement records a Nest placement decision. Kept out of line so
// selectCore's hot path only pays the Enabled check; event construction
// (which boxes into the Event interface) happens solely when a recorder
// or counter registry is attached.
func (p *Policy) emitPlacement(m sched.Machine, t *proc.Task, c machine.CoreID, path, reason string, scanned int, fork bool) {
	if h := p.h; h.Enabled() {
		h.Emit(obs.PlacementDecision{
			T: m.Now(), Sched: p.Name(), Task: int(t.ID), TaskName: t.Name,
			Core: int(c), Path: path, Scanned: scanned, Reason: reason, Fork: fork,
		})
	}
}

// fixedCost is the base placement cost of Nest's selection code, larger
// than CFS's (§5.6: "Nest adds a lot of code to core selection").
const fixedCost = 800 * sim.Nanosecond

// selectCore is the Figure 1 search path shared by fork and wakeup. ref
// is the task's previous core (the parent's core for a fork); fallback
// performs the CFS selection if both nests fail.
func (p *Policy) selectCore(m sched.Machine, t *proc.Task, ref machine.CoreID, fork bool, fallback func() machine.CoreID) machine.CoreID {
	p.ensure(m, ref)
	now := m.Now()
	examined := 0
	defer func() { m.ChargeSearch(examined, fixedCost) }()

	// First choice: the attached core (§3.3), reclaimable even when
	// compaction-eligible as long as it is still in the primary nest.
	if !p.cfg.DisableAttach && t.Attached() {
		c := t.Last
		examined++
		if p.primary.has(c) && p.usable(m, c) {
			p.lastUsed[c] = now
			p.emitPlacement(m, t, c, "attached", "", examined, fork)
			return c
		}
	}

	// Next, the previously used core when it belongs to a nest (§5.4:
	// Nest favours "the attached core or the previously used core"; both
	// nest scans start at the task's previous core, so an idle prev is
	// always found first). A prev found in the reserve nest is promoted
	// exactly as any reserve selection is. A prev outside the nests does
	// not shortcut the search: the task is guided back toward the warm
	// nest cores — the concentration that shrinks a sleepy application's
	// footprint.
	if !p.cfg.DisableAttach && t.Last != proc.NoCore {
		c := t.Last
		examined++
		if (p.primary.has(c) || p.reserve.has(c)) && p.usable(m, c) {
			reason := "primary"
			if p.primary.has(c) {
				p.lastUsed[c] = now
			} else {
				reason = "reserve_promoted"
				p.addPrimary(c, now, "prev_promote")
			}
			p.emitPlacement(m, t, c, "prev", reason, examined, fork)
			return c
		}
	}

	td := dataOf(t)
	impatient := !p.cfg.DisableImpatience && td.impatience >= p.cfg.RImpatient

	if !impatient {
		if c, ok := p.searchPrimary(m, ref, &examined); ok {
			p.emitPlacement(m, t, c, "primary", "", examined, fork)
			return c
		}
	}

	if c, ok := p.searchReserve(m, ref, &examined); ok {
		// Promotion (§3.1); an impatient task's pick grows the primary
		// nest and resets its counter.
		reason := "promoted"
		if impatient {
			reason = "impatient"
			td.impatience = 0
			p.addPrimary(c, now, "impatient")
		} else {
			p.addPrimary(c, now, "promote")
		}
		p.emitPlacement(m, t, c, "reserve", reason, examined, fork)
		return c
	}

	c := fallback()
	reason := "probation"
	if impatient {
		reason = "impatient_expand"
		p.addPrimary(c, now, "impatient")
		td.impatience = 0
	} else if p.cfg.DisableReserve {
		// Ablation: without a probation nest, CFS picks join the primary
		// directly, letting it balloon — the degradation §5.2 reports.
		reason = "direct"
		p.addPrimary(c, now, "direct")
	} else if !p.primary.has(c) {
		p.addReserve(c)
	}
	p.emitPlacement(m, t, c, "fallback", reason, examined, fork)
	return c
}

// SelectCoreFork implements sched.Policy.
func (p *Policy) SelectCoreFork(m sched.Machine, parent, child *proc.Task, parentCore machine.CoreID) machine.CoreID {
	return p.selectCore(m, child, parentCore, true, func() machine.CoreID {
		return p.cfs.SelectCoreFork(m, parent, child, parentCore)
	})
}

// SelectCoreWakeup implements sched.Policy. The impatience counter
// tracks successive wakeups that found the previous core occupied
// (§3.1).
func (p *Policy) SelectCoreWakeup(m sched.Machine, t *proc.Task, wakerCore machine.CoreID, sync bool) machine.CoreID {
	ref := t.Last
	if ref == proc.NoCore {
		ref = wakerCore
	}
	p.ensure(m, ref)
	if !p.cfg.DisableImpatience && t.Last != proc.NoCore {
		td := dataOf(t)
		if m.IsIdle(t.Last) {
			td.impatience = 0
		} else {
			td.impatience++
			if td.impatience == p.cfg.RImpatient {
				if h := p.h; h.Enabled() {
					h.Emit(obs.ImpatienceTrip{
						T: m.Now(), Task: int(t.ID), TaskName: t.Name,
						Count: td.impatience,
					})
				}
			}
		}
	}
	return p.selectCore(m, t, ref, false, func() machine.CoreID {
		return p.cfs.SelectCoreWakeup(m, t, wakerCore, sync)
	})
}

// ScheduledIn implements sched.Policy: running on a primary core
// refreshes its usage stamp.
func (p *Policy) ScheduledIn(m sched.Machine, t *proc.Task, c machine.CoreID) {
	p.ensure(m, c)
	if p.primary.has(c) {
		p.lastUsed[c] = m.Now()
	}
}

// Blocked implements sched.Policy: the block ends a usage period.
func (p *Policy) Blocked(m sched.Machine, t *proc.Task, c machine.CoreID) {
	p.ensure(m, c)
	if p.primary.has(c) {
		p.lastUsed[c] = m.Now()
	}
}

// Exited implements sched.Policy: a core left idle by an exiting task is
// no longer useful and is demoted immediately (§3.1).
func (p *Policy) Exited(m sched.Machine, t *proc.Task, c machine.CoreID, coreIdle bool) {
	p.ensure(m, c)
	if coreIdle && p.primary.has(c) {
		p.demote(c, m.Now(), "exit")
	}
}

// IdleSpin implements sched.Policy: nest cores stay warm for up to S_max
// (§3.2).
func (p *Policy) IdleSpin(m sched.Machine, c machine.CoreID) sim.Duration {
	if p.cfg.DisableSpin {
		return 0
	}
	p.ensure(m, c)
	if p.primary.has(c) {
		return p.cfg.SMax
	}
	return 0
}

// CoreOffline implements sched.Policy: an offline core leaves both nests
// immediately, before the runtime re-places its evacuated tasks, so no
// search — nor the attach or previous-core fast paths, which require
// nest membership — can choose it. Counted as nest.evacuate when the
// core was actually in a nest.
func (p *Policy) CoreOffline(m sched.Machine, c machine.CoreID) {
	p.ensure(m, c)
	now := m.Now()
	removed := false
	if p.primary.has(c) {
		p.primary.remove(c)
		p.nPrimary--
		removed = true
		if h := p.h; h.Enabled() {
			h.Emit(obs.NestCompact{
				T: now, Core: int(c), Primary: p.nPrimary, Reserve: p.nReserve,
				To: "offline", Reason: "hotplug",
			})
		}
	}
	if p.reserve.has(c) {
		p.reserve.remove(c)
		p.nReserve--
		removed = true
	}
	p.evicted[c] = true
	if removed {
		p.h.Count("nest.evacuate", 1)
	}
}

// CoreOnline implements sched.Policy: a core coming back is cold and
// unproven; it re-enters the nests through the normal probation path
// (CFS fallback into the reserve), so nothing to do beyond clearing the
// eviction mark.
func (p *Policy) CoreOnline(m sched.Machine, c machine.CoreID) {
	p.ensure(m, c)
	p.evicted[c] = false
}

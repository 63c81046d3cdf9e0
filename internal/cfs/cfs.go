// Package cfs models the core-selection behaviour of Linux v5.9's
// Completely Fair Scheduler, exactly as §2.1 of the paper characterises
// it:
//
// Fork descends the scheduling-domain hierarchy, at each level picking
// the least-loaded group, then the least-loaded core, scanning in
// numerical order (modulo the group size) from the core performing the
// fork. Load includes the decaying average of recent activity, so a
// recently idled core is passed over in favour of a long-idle — cold and
// slow — one: the dispersal that motivates Nest.
//
// Wakeup picks a target (the task's previous core or the waker's),
// searches the target's die for a fully idle physical core, then does a
// bounded scan for any idle core, then falls back to the target's
// hyperthread or the target itself. It is not work conserving: other dies
// are never examined (unless the Nest extension enables it).
package cfs

import (
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Config holds the two extensions Nest turns on when it runs this code
// as its fallback. The zero value is plain Linux v5.9 CFS.
type Config struct {
	// WorkConservingWakeup extends the wakeup search to all dies when the
	// target die has no idle core — Nest's §3.4 extension; off in CFS.
	WorkConservingWakeup bool
	// RespectClaims makes idle checks honour the §3.4 placement flag.
	// Plain CFS does not look at it — simultaneous placements can stack —
	// but when this code runs as Nest's fallback the whole path checks
	// the flag.
	RespectClaims bool
}

// fixedCost is the base placement cost charged per selection.
const fixedCost = 300 * sim.Nanosecond

// Policy is the CFS placement policy.
type Policy struct {
	sched.Base
	cfg Config
	// physStamp marks physical cores visited by the current fork scan.
	// A generation counter replaces clearing (or reallocating) the buffer
	// between scans: a slot is "seen" only when its stamp equals physGen.
	physStamp []uint64
	physGen   uint64
	// usableBuf and pairBuf are the wakeup search's scratch masks.
	usableBuf, pairBuf sched.Mask
	// topo is the topology the buffers are sized for.
	topo *machine.Topology
}

// ensure sizes the scratch buffers for topo on first use, all from one
// allocation. Fresh zero stamps never match physGen because every scan
// increments it first.
func (p *Policy) ensure(topo *machine.Topology) {
	if p.topo == topo {
		return
	}
	p.topo = topo
	n, mw := topo.NumPhysical(), sched.MaskWords(len(topo.SocketCores(0)))
	buf := make([]uint64, n+2*mw)
	p.physStamp = buf[:n:n]
	p.usableBuf = buf[n : n+mw : n+mw]
	p.pairBuf = buf[n+mw:]
}

// markPhys records phys as visited by the current scan, reporting
// whether it had already been visited.
func (p *Policy) markPhys(phys int) bool {
	if p.physStamp[phys] == p.physGen {
		return true
	}
	p.physStamp[phys] = p.physGen
	return false
}

// New returns a CFS policy with cfg.
func New(cfg Config) *Policy { return &Policy{cfg: cfg} }

// Default returns a CFS policy with kernel-default behaviour.
func Default() *Policy { return New(Config{}) }

// Name implements sched.Policy.
func (p *Policy) Name() string { return "cfs" }

// idle reports whether c can take a placement, honouring the placement
// flag when configured.
func (p *Policy) idle(m sched.Machine, c machine.CoreID) bool {
	if !m.IsIdle(c) {
		return false
	}
	if p.cfg.RespectClaims && m.Claimed(c) {
		return false
	}
	return true
}

// usable returns socket s's cores that idle accepts, as a Mask.
func (p *Policy) usable(m sched.Machine, s int) sched.Mask {
	idle := m.IdleMask(s)
	if !p.cfg.RespectClaims {
		return idle
	}
	claimed := m.ClaimedMask(s)
	u := p.usableBuf
	for w := range u {
		u[w] = idle[w] &^ claimed[w]
	}
	return u
}

// idleCore is select_idle_core on socket s: it scans the socket in wrap
// order from start, the target's position, for a physical core whose
// hardware threads are both in u, skipping the target itself. It returns
// the position of the first thread found and its offset from start, or
// -1. With SMT the first pp positions hold one thread of each physical
// core and the next pp their siblings, so pairs[j] marks physical core j
// and the scan runs over the rest of the target's half, then the other
// half.
func (p *Policy) idleCore(topo *machine.Topology, s, start int, u sched.Mask) (pos, off int) {
	n := len(topo.SocketCores(s))
	if topo.SMT() == 1 {
		if off = u.NextWrap(start, n, 1, n); off < 0 {
			return -1, 0
		}
		return (start + off) % n, off
	}
	pp := n / 2
	pairs := p.pairBuf[:sched.MaskWords(pp)]
	for w := range pairs {
		// Positions past n read as absent, so no bit past pp survives.
		pairs[w] = u.Word(w<<6) & u.Word(pp+w<<6)
	}
	h0, half := start%pp, start/pp
	if j := pairs.Next(h0+1, pp); j >= 0 {
		return half*pp + j, j - h0
	}
	if j := pairs.Next(0, h0+1); j >= 0 {
		return (1-half)*pp + j, pp - h0 + j
	}
	return -1, 0
}

// numaImbalance is the number of runnable tasks' worth of load a socket
// may exceed the idlest socket by before fork spills to it, modelling the
// kernel's allowed NUMA imbalance.
const numaImbalance = 2.0

// SelectCoreFork implements the fork path (§2.1): idlest socket with the
// NUMA-imbalance allowance, then the idlest physical core scanning in
// wrap order from the forking core, then the idlest hardware thread.
func (p *Policy) SelectCoreFork(m sched.Machine, parent, child *proc.Task, parentCore machine.CoreID) machine.CoreID {
	topo := m.Topo()
	examined := 0
	defer func() { m.ChargeSearch(examined, fixedCost) }()

	// NUMA level: compare stale per-socket runnable counts. The home
	// socket keeps the fork while its excess over the idlest socket is
	// within the allowed NUMA imbalance (a couple of tasks, scaled up on
	// wide sockets): sleeping tasks do not pin their socket, so an
	// application whose threads mostly block stays on one socket —
	// except in bursts of simultaneous activity, when forks spill
	// (the paper's occasional multi-socket h2 runs, Figure 9).
	home := topo.Socket(parentCore)
	running := m.SocketRunning()
	allowance := numaImbalance
	if q := float64(topo.PhysPerSocket()) / 8; q > allowance {
		allowance = q
	}
	// Once the home socket is half full of runnable tasks the allowance
	// disappears: a saturating fork storm (NAS) is balanced exactly,
	// while lightly loaded applications keep their home-socket bias.
	if running[home] >= topo.PhysPerSocket()/2 {
		allowance = 0
	}
	bestSock := home
	for s := 0; s < topo.NumSockets(); s++ {
		if s == bestSock || !socketHasOnline(m, s) {
			continue
		}
		margin := 0.0
		if bestSock == home {
			margin = allowance
		}
		if float64(running[s]) < float64(running[bestSock])-margin {
			bestSock = s
		}
	}

	// MC level: least-loaded physical core, wrap scan from the forking
	// core so equal-load (cold) candidates are taken in numerical order.
	scan := topo.ScanFrom(bestSock, parentCore)
	var bestA, bestB machine.CoreID = -1, -1
	bestLoad := 0.0
	p.ensure(topo)
	p.physGen++
	for _, c := range scan {
		if p.markPhys(topo.Core(c).Physical) {
			continue
		}
		sib := topo.Sibling(c)
		// A physical core is a candidate only through its online threads.
		if !m.Online(c) {
			if sib == c || !m.Online(sib) {
				continue
			}
			c, sib = sib, c
		}
		load := m.LoadAvg(c)
		if sib != c && m.Online(sib) {
			load += m.LoadAvg(sib)
		}
		examined += 2
		if bestA < 0 || load < bestLoad {
			bestA, bestB = c, sib
			bestLoad = load
		}
	}

	// SMT level: the emptier hardware thread.
	chosen, path := bestA, "idlest_group"
	if chosen < 0 {
		// The chosen socket had no online core after all (hotplug race);
		// fall back to any online core near the forking one.
		chosen, path = fallbackOnline(m, parentCore), "online_fallback"
	} else if bestB != bestA && m.Online(bestB) && m.LoadAvg(bestB) < m.LoadAvg(bestA) {
		chosen, path = bestB, "idlest_smt"
	}
	if h := m.Obs(); h.Enabled() {
		reason := ""
		if bestSock != home {
			reason = "numa_spill"
		}
		h.Emit(obs.PlacementDecision{
			T: m.Now(), Sched: p.Name(), Task: int(child.ID), TaskName: child.Name,
			Core: int(chosen), Path: path, Scanned: examined, Reason: reason, Fork: true,
		})
	}
	return chosen
}

// SelectCoreWakeup implements the wakeup path (§2.1).
func (p *Policy) SelectCoreWakeup(m sched.Machine, t *proc.Task, wakerCore machine.CoreID, sync bool) machine.CoreID {
	examined := 0
	chosen, path, reason := p.wakeupChoose(m, t, wakerCore, sync, &examined)
	m.ChargeSearch(examined, fixedCost)
	if h := m.Obs(); h.Enabled() {
		h.Emit(obs.PlacementDecision{
			T: m.Now(), Sched: p.Name(), Task: int(t.ID), TaskName: t.Name,
			Core: int(chosen), Path: path, Scanned: examined, Reason: reason,
		})
	}
	return chosen
}

// scanLimit bounds the wakeup search for an idle core on the die after
// the fully-idle-physical-core scan fails.
const scanLimit = 6

// wakeupChoose performs the wakeup search and names the heuristic path
// that produced the choice (for the observability layer).
func (p *Policy) wakeupChoose(m sched.Machine, t *proc.Task, wakerCore machine.CoreID, sync bool, examined *int) (machine.CoreID, string, string) {
	topo := m.Topo()
	p.ensure(topo)

	prev := t.Last
	if prev == proc.NoCore {
		prev = wakerCore
	}

	// Choose the target between the previous core and the waker's core.
	target, targetPath := prev, "prev"
	*examined++
	if !p.idle(m, prev) {
		if sync && m.QueueLen(wakerCore) <= 1 {
			// Synchronous handoff, as wake_affine does: the waker is
			// alone on its core and about to block.
			target, targetPath = wakerCore, "sync_affine"
		} else {
			loads := m.SocketLoads()
			ps, ws := topo.Socket(prev), topo.Socket(wakerCore)
			if ps != ws && loads[ps] > loads[ws]+1 {
				// wake_affine: pull toward the waker's less-loaded die.
				target, targetPath = wakerCore, "wake_affine"
			}
		}
	}

	if p.idle(m, target) {
		return target, targetPath, ""
	}
	die := topo.Socket(target)
	if topo.Socket(prev) == die && p.idle(m, prev) {
		return prev, "prev", ""
	}

	// select_idle_core: a physical core with both hardware threads idle,
	// scanning the die in wrap order from the target. Every core the scan
	// passes counts as examined, the target included.
	n, start := len(topo.SocketCores(die)), topo.PosInSocket(target)
	u := p.usable(m, die)
	if pos, off := p.idleCore(topo, die, start, u); pos >= 0 {
		*examined += off + 1
		return topo.SocketCores(die)[pos], "idle_core", ""
	}
	*examined += n

	// Bounded scan for any idle core on the die.
	limit := min(scanLimit, n)
	if off := u.NextWrap(start, n, 1, limit); off >= 0 {
		*examined += off + 1
		return topo.SocketCores(die)[(start+off)%n], "scan", ""
	}
	*examined += limit

	// Nest's work-conservation extension (§3.4): examine all of the
	// dies — completing the target die beyond the bounded scan, then
	// every other die. Each die is scanned from the target's position,
	// or from its first core when the target lies elsewhere.
	if p.cfg.WorkConservingWakeup {
		for _, s := range topo.SocketOrder(target) {
			cores := topo.SocketCores(s)
			ns, from, st := len(cores), 0, 0
			if s == die {
				from, st = 1, start // the target heads its die's scan
			} else {
				u = p.usable(m, s)
			}
			if off := u.NextWrap(st, ns, from, ns); off >= 0 {
				*examined += off + 1
				reason := ""
				if s != die {
					reason = "die_spill"
				}
				return cores[(st+off)%ns], "work_conserve", reason
			}
			*examined += ns
		}
	}

	// The target's hyperthread, then the target itself.
	if sib := topo.Sibling(target); sib != target {
		*examined++
		if p.idle(m, sib) {
			return sib, "sibling", ""
		}
	}
	// An offline target cannot absorb the fallback (its previous core or
	// die went down mid-run): divert to any online core.
	if !m.Online(target) {
		return fallbackOnline(m, target), "online_fallback", "target_offline"
	}
	return target, "target_fallback", "no_idle"
}

// socketHasOnline reports whether socket s has at least one online core.
func socketHasOnline(m sched.Machine, s int) bool {
	for _, c := range m.Topo().SocketCores(s) {
		if m.Online(c) {
			return true
		}
	}
	return false
}

// fallbackOnline returns an online core near ref — idle if possible —
// for when every normal candidate went offline. The runtime never
// offlines the last core, so the scan always finds one.
func fallbackOnline(m sched.Machine, ref machine.CoreID) machine.CoreID {
	topo := m.Topo()
	fallback := machine.CoreID(-1)
	for _, s := range topo.SocketOrder(ref) {
		for _, c := range topo.ScanFrom(s, ref) {
			if !m.Online(c) {
				continue
			}
			if m.IsIdle(c) {
				return c
			}
			if fallback < 0 {
				fallback = c
			}
		}
	}
	if fallback < 0 {
		return ref
	}
	return fallback
}

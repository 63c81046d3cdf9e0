package cfs

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sched/schedtest"
	"repro/internal/sim"
)

// TestWakeupMatchesLoopOracle runs the mask-based wakeup search and the
// per-core loop it replaced on random machine states, in every
// combination of the two Nest extensions, and requires the same core,
// path, reason and examined count: examined feeds ChargeSearch, and so
// simulated time.
func TestWakeupMatchesLoopOracle(t *testing.T) {
	r := sim.NewRand(7)
	for _, spec := range schedtest.Specs() {
		topo := spec.Topo
		t.Run(topo.String(), func(t *testing.T) {
			f := schedtest.NewFake(spec)
			n := topo.NumCores()
			for trial := 0; trial < 400; trial++ {
				f.Scramble(r, r.Float64())
				last := machine.CoreID(r.Intn(n+1) - 1) // -1 is proc.NoCore
				waker := machine.CoreID(r.Intn(n))
				sync := r.Intn(2) == 0
				tk := schedtest.NewTask(1, last, proc.NoCore)
				for _, cfg := range []Config{{}, {WorkConservingWakeup: true}, {RespectClaims: true}, {WorkConservingWakeup: true, RespectClaims: true}} {
					got, want := New(cfg), New(cfg)
					var ge, we int
					gc, gp, gr := got.wakeupChoose(f, tk, waker, sync, &ge)
					wc, wp, wr := want.wakeupChooseLoop(f, tk, waker, sync, &we)
					if gc != wc || gp != wp || gr != wr || ge != we {
						t.Fatalf("trial %d %+v last %d waker %d sync %v: masks (%d %s %q examined %d), loop (%d %s %q examined %d)",
							trial, cfg, last, waker, sync, gc, gp, gr, ge, wc, wp, wr, we)
					}
				}
			}
		})
	}
}

// wakeupChooseLoop is the wakeup search as it was before the idle masks:
// it tests cores one at a time through the Machine interface. It is the
// oracle of TestWakeupMatchesLoopOracle.
func (p *Policy) wakeupChooseLoop(m sched.Machine, t *proc.Task, wakerCore machine.CoreID, sync bool, examined *int) (machine.CoreID, string, string) {
	topo := m.Topo()

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

	// select_idle_core: a physical core with both hardware threads idle.
	scan := topo.ScanFrom(die, target)
	for _, c := range scan {
		*examined++
		if c == target {
			continue
		}
		if p.idle(m, c) && p.idle(m, topo.Sibling(c)) {
			return c, "idle_core", ""
		}
	}

	// Bounded scan for any idle core on the die.
	limit := scanLimit
	for _, c := range scan {
		if limit == 0 {
			break
		}
		limit--
		*examined++
		if c != target && p.idle(m, c) {
			return c, "scan", ""
		}
	}

	// Nest's work-conservation extension (§3.4): examine all of the
	// dies — completing the target die beyond the bounded scan, then
	// every other die.
	if p.cfg.WorkConservingWakeup {
		for _, s := range topo.SocketOrder(target) {
			for _, c := range topo.ScanFrom(s, target) {
				*examined++
				if c != target && p.idle(m, c) {
					reason := ""
					if s != die {
						reason = "die_spill"
					}
					return c, "work_conserve", reason
				}
			}
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

// Package smove models the Smove scheduler of Gouicem et al. (§2.2), the
// paper's prior-work baseline for frequency-aware placement.
//
// Smove lets CFS choose a core; if the frequency observed at the last
// clock tick on that core is low while the waker's core is fast, the
// child is tentatively placed on the waker's core, with a timer that
// moves it to the CFS choice if it has not started running in time.
//
// Smove's weakness — reproduced here because the frequency it reads is
// the lagging tick sample — is that on Speed Shift machines a core that
// just went idle usually still shows its old high frequency at the last
// tick, so the placement heuristic rarely triggers (§5.2).
package smove

import (
	"repro/internal/cfs"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The published Smove parameters.
const (
	// lowFreqFraction: a CFS-chosen core is "low frequency" when its
	// tick-sampled frequency is below this fraction of nominal.
	lowFreqFraction = 0.95
	// highFreqFraction: the waker core must be at least this fraction
	// of nominal for the hand-off placement to be worthwhile.
	highFreqFraction = 1.0
	// moveDelay is the timer after which an un-run task is moved to the
	// CFS-chosen core.
	moveDelay = 200 * sim.Microsecond
)

// Policy is the Smove scheduler.
type Policy struct {
	sched.Base
	cfs *cfs.Policy
}

// Default returns Smove with the published parameters over plain CFS.
func Default() *Policy { return &Policy{cfs: cfs.Default()} }

// Name implements sched.Policy.
func (p *Policy) Name() string { return "smove" }

// place applies the Smove heuristic to a CFS choice.
func (p *Policy) place(m sched.Machine, t *proc.Task, wakerCore, chosen machine.CoreID) machine.CoreID {
	if chosen == wakerCore {
		return chosen
	}
	nominal := float64(m.Spec().Nominal)
	chosenF := float64(m.TickFreq(chosen))
	wakerF := float64(m.TickFreq(wakerCore))
	if chosenF >= nominal*lowFreqFraction {
		// The tick sample says the CFS core is fine; do nothing. (It is
		// often wrong on just-idled cores — Smove's blind spot.)
		m.Obs().Count("smove.tick_said_fast", 1)
		return chosen
	}
	if wakerF < nominal*highFreqFraction {
		return chosen
	}
	// Tentative placement on the waker's fast core, with a timer to fall
	// back to the CFS choice.
	m.MoveIfStillQueued(t, chosen, moveDelay)
	if h := m.Obs(); h.Enabled() {
		h.Emit(obs.PlacementDecision{
			T: m.Now(), Sched: p.Name(), Task: int(t.ID), TaskName: t.Name,
			Core: int(wakerCore), Path: "handoff", Reason: "tick_freq_low",
		})
	}
	return wakerCore
}

// SelectCoreFork implements sched.Policy.
func (p *Policy) SelectCoreFork(m sched.Machine, parent, child *proc.Task, parentCore machine.CoreID) machine.CoreID {
	chosen := p.cfs.SelectCoreFork(m, parent, child, parentCore)
	return p.place(m, child, parentCore, chosen)
}

// SelectCoreWakeup implements sched.Policy.
func (p *Policy) SelectCoreWakeup(m sched.Machine, t *proc.Task, wakerCore machine.CoreID, sync bool) machine.CoreID {
	chosen := p.cfs.SelectCoreWakeup(m, t, wakerCore, sync)
	return p.place(m, t, wakerCore, chosen)
}

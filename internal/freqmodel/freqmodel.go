// Package freqmodel implements the hardware side of frequency selection:
// given a governor request and the socket's activity, pick each core's
// actual frequency.
//
// The model captures the three hardware behaviours the paper's results
// rest on:
//
//   - Turbo budget: the cap on a core's frequency falls with the number
//     of active physical cores on its socket (Table 3). Concentrating
//     work on few cores — Nest's whole point — raises the cap.
//   - Ramp: frequency moves toward its target gradually. Speed Shift
//     parts (Skylake/Cascade Lake/Zen 2) converge within a couple of
//     ticks; the Broadwell E7-8870 v4's Enhanced SpeedStep takes tens of
//     milliseconds, which is why short tasks placed on cold cores run
//     slowly there even under the performance governor.
//   - Idle decay: an idle, non-spinning core's frequency (and the
//     frequency a newly placed task initially sees) decays toward the
//     minimum. Nest's idle spinning keeps the core "active" so neither
//     the decay nor the governor sag happens.
package freqmodel

import (
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// rampRates returns the per-tick fractional approach toward the target
// frequency (up, down) for a power-management generation.
func rampRates(r machine.RampClass) (up, down float64) {
	switch r {
	case machine.SpeedShift:
		// Ramps up to ~95% of a step in two ticks; decays more slowly —
		// an idle core re-enters execution near its previous P-state for
		// a couple of ticks before falling to the floor.
		return 0.80, 0.35
	case machine.SpeedStep:
		// Reaches ~90% of a step in ~8 ticks (~32 ms).
		return 0.25, 0.30
	}
	return 0.5, 0.5
}

// Core tracks one hardware thread's frequency state.
type Core struct {
	cur        float64 // current frequency, MHz
	tickSample machine.FreqMHz
}

// Model owns frequency state for a whole machine.
type Model struct {
	spec  *machine.Spec
	cores []Core
	up    float64
	down  float64

	// caps holds per-socket thermal throttle ceilings (0 = unthrottled):
	// an external cap on the Table-3 turbo ladder, injected by the fault
	// plan (internal/fault). Every grant is clamped below the cap.
	caps []machine.FreqMHz

	// obs/now feed frequency-grant events to the observability layer.
	// The model has no clock of its own, so the runtime injects one.
	obs *obs.Hub
	now func() sim.Time
}

// SetObs attaches an observability hub and a clock for event timestamps.
// The model never emits without both.
func (m *Model) SetObs(h *obs.Hub, now func() sim.Time) {
	m.obs = h
	m.now = now
}

// emitGrant records a frequency grant when observability is on.
func (m *Model) emitGrant(c machine.CoreID, grant float64, activePhys int, reason string) {
	if h := m.obs; h.Enabled() && m.now != nil {
		h.Emit(obs.FreqGrant{
			T: m.now(), Core: int(c), GrantMHz: int(grant + 0.5),
			LimitMHz: int(m.spec.TurboLimit(activePhys)), ActivePhys: activePhys,
			Reason: reason,
		})
	}
}

// New returns a model with every core parked at the machine minimum.
func New(spec *machine.Spec) *Model {
	m := &Model{
		spec:  spec,
		cores: make([]Core, spec.Topo.NumCores()),
		caps:  make([]machine.FreqMHz, spec.Topo.NumSockets()),
	}
	m.up, m.down = rampRates(spec.Ramp)
	for i := range m.cores {
		m.cores[i].cur = float64(spec.Min)
		// The observable sample starts at nominal: frequency counters
		// only advance while a core executes, and the last thing these
		// cores executed was boot-time work at nominal.
		m.cores[i].tickSample = spec.Nominal
	}
	return m
}

// Cur returns core c's current frequency.
func (m *Model) Cur(c machine.CoreID) machine.FreqMHz {
	return machine.FreqMHz(m.cores[c].cur + 0.5)
}

// SocketCap returns socket s's thermal throttle ceiling (0 when
// unthrottled).
func (m *Model) SocketCap(s int) machine.FreqMHz { return m.caps[s] }

// SetSocketCap installs (or, with cap <= 0, clears) a thermal throttle
// ceiling on socket s. Throttling is immediate, as real thermal events
// are: every core already above the cap is clamped down on the spot and
// its observable tick sample clamped with it. The caller must book task
// progress at the old frequencies before calling this.
func (m *Model) SetSocketCap(s int, cap machine.FreqMHz) {
	if cap < 0 {
		cap = 0
	}
	m.caps[s] = cap
	if cap == 0 {
		return
	}
	for _, c := range m.spec.Topo.SocketCores(s) {
		cs := &m.cores[c]
		if cs.cur > float64(cap) {
			cs.cur = float64(cap)
			m.emitGrant(c, float64(cap), 0, "throttle")
		}
		if cs.tickSample > cap {
			cs.tickSample = cap
		}
	}
}

// clampCap applies core c's socket throttle ceiling to a target
// frequency.
func (m *Model) clampCap(c machine.CoreID, f float64) float64 {
	if cap := m.caps[m.spec.Topo.Socket(c)]; cap > 0 && f > float64(cap) {
		return float64(cap)
	}
	return f
}

// CapFor returns the highest frequency core c may currently be granted:
// the single-active-core turbo ceiling clamped by any thermal throttle
// on its socket. The invariant checker validates every core against
// this bound.
func (m *Model) CapFor(c machine.CoreID) machine.FreqMHz {
	limit := m.spec.MaxTurbo()
	if cap := m.caps[m.spec.Topo.Socket(c)]; cap > 0 && cap < limit {
		limit = cap
	}
	return limit
}

// Park resets core c to the machine minimum with a matching tick
// sample — the state a core comes back up in after a hotplug cycle.
func (m *Model) Park(c machine.CoreID) {
	cs := &m.cores[c]
	cs.cur = m.clampCap(c, float64(m.spec.Min))
	cs.tickSample = machine.FreqMHz(cs.cur + 0.5)
}

// Boost applies the hardware's sub-tick reaction to a core becoming
// active: one partial ramp step toward the granted target, without
// touching the tick sample. Modern HWP reacts within a few hundred
// microseconds of activity, well under a tick; Broadwell reacts far more
// slowly, so short tasks placed on its cold cores stay slow.
func (m *Model) Boost(c machine.CoreID, req governor.Request, activePhys int, hwUtil float64) machine.FreqMHz {
	cs := &m.cores[c]
	target := m.clampCap(c, m.activeTarget(req, activePhys, hwUtil))
	if target > cs.cur {
		cs.cur += float64((target - cs.cur) * m.up * 0.8)
	}
	m.emitGrant(c, target, activePhys, "boost")
	return machine.FreqMHz(cs.cur + 0.5)
}

// hwUtilBias maps the hardware's short-horizon utilisation estimate to a
// fraction of the turbo budget under an energy-aware preference.
func hwUtilBias(u float64) float64 {
	v := 0.60 + float64(0.50*u)
	if v > 1 {
		v = 1
	}
	return v
}

// activeTarget computes the frequency the hardware steers a busy core
// toward.
//
// On Speed Shift parts the hardware is autonomous: under the performance
// preference a busy core is driven at the full turbo budget; under the
// energy-aware preference (schedutil) the grant follows the hardware's
// own short-horizon utilisation estimate — a core that is only
// sporadically busy is run below the budget. This is what separates CFS
// (low per-core utilisation after dispersal) from Nest (reused, spinning
// cores look fully busy).
//
// On SpeedStep parts the OS suggestion is authoritative, which is why
// schedutil's sag matters so much more on the E7-8870 v4.
func (m *Model) activeTarget(req governor.Request, activePhys int, hwUtil float64) float64 {
	limit := m.spec.TurboLimit(activePhys)
	sug := req.Suggestion
	if m.spec.Ramp == machine.SpeedShift {
		if req.EnergyAware {
			hw := machine.FreqMHz(hwUtilBias(hwUtil) * float64(limit))
			if hw > sug {
				sug = hw
			}
		} else {
			sug = limit
		}
	}
	if sug < req.Floor {
		sug = req.Floor
	}
	if sug > limit {
		sug = limit
	}
	return float64(sug)
}

// TickSample returns the frequency recorded at the last tick boundary.
// This is what tick-based observers (Smove, §2.2) see; it lags reality,
// which is precisely why Smove under-triggers on Speed Shift machines.
func (m *Model) TickSample(c machine.CoreID) machine.FreqMHz {
	return m.cores[c].tickSample
}

// TurboLimit returns the cap for a core on a socket with the given number
// of active physical cores.
func (m *Model) TurboLimit(activePhys int) machine.FreqMHz {
	return m.spec.TurboLimit(activePhys)
}

// TickUpdate advances core c by one tick. active reports whether the core
// is running a task or idle-spinning; util is the core's PELT
// utilisation; req is the governor's request; activePhys is the number of
// active physical cores on c's socket (including c's own, if active).
//
// It returns the new current frequency.
func (m *Model) TickUpdate(c machine.CoreID, active bool, req governor.Request, activePhys int, hwUtil float64) machine.FreqMHz {
	cs := &m.cores[c]
	// The observable frequency (aperf/mperf) only advances while the core
	// executes; an idle core's sample stays frozen at its last active
	// value. This is Smove's blind spot (§5.2): a just-idled core still
	// "reads" fast at the next tick.
	if active {
		cs.tickSample = machine.FreqMHz(cs.cur + 0.5)
	}

	var target float64
	if active {
		target = m.clampCap(c, m.activeTarget(req, activePhys, hwUtil))
		m.emitGrant(c, target, activePhys, "tick")
	} else {
		target = m.idleTarget(c, req)
	}
	cs.cur = m.step(cs.cur, target)
	return machine.FreqMHz(cs.cur + 0.5)
}

// idleTarget is the frequency an idle, non-spinning core decays toward:
// the governor floor (performance keeps idle cores parked at nominal;
// schedutil lets them fall to the machine minimum), capped by any
// thermal throttle.
func (m *Model) idleTarget(c machine.CoreID, req governor.Request) float64 {
	return m.clampCap(c, float64(req.Floor))
}

// step moves a clock one tick toward target at the ramp rates. The
// conversions round each product, so no architecture fuses it into the
// add and IdleFixed agrees with TickUpdate everywhere.
func (m *Model) step(cur, target float64) float64 {
	if target > cur {
		return cur + float64((target-cur)*m.up)
	}
	return cur + float64((target-cur)*m.down)
}

// IdleFixed reports whether an idle TickUpdate with req would leave core
// c's clock exactly where it is. A decayed clock stops one ulp above its
// floor, not on it — the last step moves it by 0.35 ulp, which rounds
// away — so callers test this fixed point, never cur == floor.
func (m *Model) IdleFixed(c machine.CoreID, req governor.Request) bool {
	cur := m.cores[c].cur
	return m.step(cur, m.idleTarget(c, req)) == cur
}

// Spec returns the machine spec the model was built for.
func (m *Model) Spec() *machine.Spec { return m.spec }

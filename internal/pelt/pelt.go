// Package pelt implements a per-entity load-tracking signal modelled on
// the Linux kernel's PELT: an exponentially decaying average of recent
// activity with a 32 ms half-life.
//
// Two properties of this signal drive the paper's results and are
// preserved exactly:
//
//  1. A core that has just gone idle keeps a non-zero load average for
//     tens of milliseconds, so CFS's fork path — which picks the
//     least-loaded core — prefers a long-idle (cold, low-frequency) core
//     over a recently used (warm) one. This is the direct cause of the
//     task dispersal in Figure 2(a).
//  2. schedutil's frequency request follows utilisation, so a core whose
//     task briefly blocks sees its requested frequency sag, which is what
//     Nest's idle spinning counteracts.
package pelt

import (
	"math"

	"repro/internal/sim"
)

// HalfLife is the default decay half-life of the tracking signal,
// matching the kernel's PELT.
const HalfLife = 32 * sim.Millisecond

// Signal is a lazily updated exponentially weighted activity average in
// [0, 1]. The zero value is an idle signal at time zero with the default
// PELT half-life and no decay memo.
type Signal struct {
	value    float64
	level    float64 // instantaneous activity the average converges toward
	last     sim.Time
	halfLife sim.Duration // 0 means HalfLife
	memo     *Memo        // nil: every decay computes its exponential
}

// WithHalfLife returns an idle signal that decays with the given
// half-life. Hardware activity estimators (HWP) track much shorter
// horizons than PELT; internal/cpu uses one per core to drive the
// frequency model.
func WithHalfLife(h sim.Duration) Signal {
	return Signal{halfLife: h}
}

// memoBits sets the size of a Memo: 1<<memoBits entries.
const memoBits = 6

// Memo caches decay factors keyed by (half-life, elapsed time) for every
// signal of one run. A fork scan decays each core of a socket to the
// same instant, and most of those cores were last decayed together at
// the previous scan, so their elapsed times match across signals; the
// tick decays every active signal by one period. The table is
// direct-mapped: a key lives in the one slot its hash names, and a new
// key evicts the old. A Memo stores the exact math.Exp result, so
// signals with and without one are bit-identical: it saves time only.
// It is not safe for concurrent use; each machine owns its own.
type Memo struct {
	ent [1 << memoBits]memoEntry
}

type memoEntry struct {
	h, dt sim.Duration // dt == 0 marks an empty slot: decays never use it
	f     float64
}

// Signal returns an idle signal with half-life h (0 means HalfLife) that
// shares m's decay factors.
func (m *Memo) Signal(h sim.Duration) Signal {
	return Signal{halfLife: h, memo: m}
}

// slot returns the one entry that may hold (h, dt). The hash mixes h
// into high bits before the multiply: a core's two signals decay by the
// same dt under different half-lives, and must not share a slot.
func (m *Memo) slot(h, dt sim.Duration) *memoEntry {
	return &m.ent[((uint64(dt)^uint64(h)<<32)*0x9E3779B97F4A7C15)>>(64-memoBits)]
}

// decayFactor is the fraction of the distance to the level that remains
// after dt under half-life h.
func decayFactor(h, dt sim.Duration) float64 {
	return math.Exp(-math.Ln2 / float64(h) * float64(dt))
}

// decayTo brings the signal up to date at time t.
func (s *Signal) decayTo(t sim.Time) {
	if t <= s.last {
		return
	}
	if s.value == s.level {
		// Converged: value' = level + (value-level)·f = level exactly,
		// whatever f is. Long-busy signals saturate at exactly 1.0 (the
		// residual underflows) and long-idle ones at 0.0, so this skips
		// the exponential on the steady-state hot path bit-identically.
		s.last = t
		return
	}
	h := s.halfLife
	if h == 0 {
		h = HalfLife
	}
	dt := t - s.last
	var f float64
	if s.memo == nil {
		f = decayFactor(h, dt)
	} else if e := s.memo.slot(h, dt); e.dt == dt && e.h == h {
		f = e.f
	} else {
		f = decayFactor(h, dt)
		*e = memoEntry{h: h, dt: dt, f: f}
	}
	// Converges toward the current activity level. The conversion rounds
	// the product, so no architecture fuses it into the add.
	s.value = s.level + float64((s.value-s.level)*f)
	s.last = t
}

// SetRunning records that the entity started or stopped contributing
// activity at time t.
func (s *Signal) SetRunning(t sim.Time, running bool) {
	lv := 0.0
	if running {
		lv = 1.0
	}
	s.SetLevel(t, lv)
}

// SetLevel records a fractional activity level at time t. Idle spinning
// contributes a partial level: the hardware's activity estimator sees the
// spin loop, but (on SpeedStep parts especially) discounts it relative to
// real work.
func (s *Signal) SetLevel(t sim.Time, level float64) {
	if level < 0 {
		level = 0
	}
	if level > 1 {
		level = 1
	}
	s.decayTo(t)
	s.level = level
}

// Value returns the utilisation estimate at time t.
func (s *Signal) Value(t sim.Time) float64 {
	s.decayTo(t)
	return s.value
}

// Level returns the instantaneous activity level last set.
func (s *Signal) Level() float64 { return s.level }

// Zero reports whether the signal is idle and fully decayed: both value
// and level are exactly 0, so Value returns 0 at every later time until
// the next SetLevel or Reset. A signal that ever rose above 0 under the
// default half-life never gets here by decay alone: one tick multiplies
// by 2^(-1/8), which rounds a value of a few denormal ulps back to
// itself.
func (s *Signal) Zero() bool { return s.value == 0 && s.level == 0 }

// Reset forces the signal to v at time t (used when migrating load).
func (s *Signal) Reset(t sim.Time, v float64) {
	s.value = v
	s.last = t
}

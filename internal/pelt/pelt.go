// Package pelt implements a per-entity load-tracking signal modelled on
// the Linux kernel's PELT: a geometrically decaying average of recent
// activity, kept in fixed point and decayed across whole periods with
// the kernel's own constants, so that 32 periods halve it.
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
//
// The arithmetic is the kernel's (kernel/sched/pelt.c): a period index
// is the time shifted right, never divided, and decayLoad is
// decay_load's mul-shift over the runnable_avg_yN_inv table. Every
// operation is on integers, so a signal's value is the same on every
// host, and one idle long enough decays to exactly 0.
package pelt

import "repro/internal/sim"

// Periods: PELT's is 2^20 ns (the kernel's 1024 µs, within 2.4%); the
// hardware activity estimator's default is 2^16 ns.
const (
	periodShift = 20
	halfLifeLog = 5 // 32 periods halve a signal: y^32 = 1/2
)

// HalfLife is the default decay half-life of the tracking signal: 32
// periods of 2^20 ns, about 33.6 ms, the kernel's 32 × 1024 µs.
const HalfLife = sim.Duration(1) << (periodShift + halfLifeLog)

// valueShift sets the fixed-point scale: a value v in [0, 1] is stored
// as v·2^valueShift. A deviation of 1 (full activity) reaches 0 after at
// most valueShift+1 half-lives, and decayLoad's product stays below 2^64.
const valueShift = 32

const one = uint64(1) << valueShift

// runnableAvgYNInv[n] is y^n·2^32 (y^32 = 1/2), truncated: the kernel's
// runnable_avg_yN_inv, as Documentation/scheduler/sched-pelt.c prints
// it.
var runnableAvgYNInv = [1 << halfLifeLog]uint32{
	0xffffffff, 0xfa83b2da, 0xf5257d14, 0xefe4b99a, 0xeac0c6e6, 0xe5b906e6,
	0xe0ccdeeb, 0xdbfbb796, 0xd744fcc9, 0xd2a81d91, 0xce248c14, 0xc9b9bd85,
	0xc5672a10, 0xc12c4cc9, 0xbd08a39e, 0xb8fbaf46, 0xb504f333, 0xb123f581,
	0xad583ee9, 0xa9a15ab4, 0xa5fed6a9, 0xa2704302, 0x9ef5325f, 0x9b8d39b9,
	0x9837f050, 0x94f4efa8, 0x91c3d373, 0x8ea4398a, 0x8b95c1e3, 0x88980e80,
	0x85aac367, 0x82cd8698,
}

// decayLoad returns val·y^n, the kernel's decay_load: whole half-lives
// are a shift, the remainder one table multiply. Past 63 half-lives it
// is 0. val must not exceed one, so that the product fits in 64 bits.
func decayLoad(val, n uint64) uint64 {
	if n > 63<<halfLifeLog {
		return 0
	}
	val >>= n >> halfLifeLog & 63 // the mask only spares the shift's range check
	return val * uint64(runnableAvgYNInv[n&(1<<halfLifeLog-1)]) >> 32
}

// Signal is a lazily updated geometrically weighted activity average in
// [0, 1]. The zero value is an idle signal at time zero with the default
// PELT half-life.
//
// The value changes only when a period boundary passes: it then moves
// 1-y of the way toward the period's mean activity level, which the
// signal accumulates across the period as the kernel accumulates a
// partial period's contribution. Between boundaries it is constant.
type Signal struct {
	value uint64 // fixed point, one = 1.0
	level uint64 // fixed point: the activity level since last
	// dev is the current period's activity up to last, less level × the
	// time elapsed in the period (fixed point × ns): 0 while the level
	// has not changed within the period.
	dev   int64
	last  sim.Time
	lv    float64 // the level as set, for Level
	shift uint8   // log2 of the period in ns; 0 means periodShift
}

// maxShift bounds a period to 2^30 ns, so that a period's accumulated
// activity (at most one × 2^shift) fits in an int64.
const maxShift = 62 - valueShift

// WithHalfLife returns an idle signal whose half-life is 32 periods of
// the power-of-two nanoseconds nearest h/32 (within a factor of √2:
// 2 ms gives 2^16 ns periods, a half-life of 2.10 ms; at most 2^30 ns).
// Hardware activity estimators (HWP) track much shorter horizons than
// PELT; internal/cpu uses one per core to drive the frequency model.
func WithHalfLife(h sim.Duration) Signal {
	p := h >> halfLifeLog
	s := uint8(1)
	for s < maxShift && sim.Duration(1)<<s+sim.Duration(1)<<(s-1) <= p {
		s++ // p >= 1.5·2^s: 2^(s+1) is at least as near as 2^s
	}
	return Signal{shift: s}
}

// periodShift returns log2 of the signal's period in ns. The mask only
// spares every shift by it a range check.
func (s *Signal) periodShift() uint {
	if s.shift == 0 {
		return periodShift
	}
	return uint(s.shift) & 63
}

// inPeriod returns the time t has spent in its period.
func inPeriod(t sim.Time, sh uint) int64 {
	return int64(t - t>>sh<<sh)
}

// toward returns v moved toward target as n periods of decay move it:
// the deviation's magnitude shrinks by y^n, whichever its sign. The
// sign is applied without a branch: on the tick it is unpredictable.
func toward(v, target, n uint64) uint64 {
	d := int64(v - target) // |d| <= one
	m := d >> 63           // 0, or -1 when v < target
	r := int64(decayLoad(uint64((d^m)-m), n))
	return target + uint64((r^m)-m)
}

// decayTo brings the signal up to date at time t. Each period boundary
// in (last, t] moves the value toward that period's mean level: the
// first one's mean includes the level changes within its period, every
// later one's is the current level. A converged signal (value = level,
// no change within the period) stays put at no cost.
func (s *Signal) decayTo(t sim.Time) {
	if t <= s.last {
		return
	}
	if s.value == s.level && s.dev == 0 {
		s.last = t
		return
	}
	sh := s.periodShift()
	first, now := s.last>>sh+1, t>>sh // first boundary crossed, and t's period
	s.last = t
	if first > now {
		return
	}
	mean := s.level + uint64(s.dev>>sh) // the arithmetic shift floors
	s.dev = 0
	n := uint64(now - first) // boundaries after the first
	if mean == s.level {
		s.value = toward(s.value, mean, n+1) // one level across every boundary
	} else if s.value = toward(s.value, mean, 1); n > 0 {
		s.value = toward(s.value, s.level, n)
	}
}

// fixed converts v to the fixed-point scale, clamped to [0, 1].
func fixed(v float64) uint64 {
	if !(v > 0) {
		return 0
	}
	if v >= 1 {
		return one
	}
	return uint64(float64(v * float64(one)))
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
	s.lv = level
	if l := fixed(level); l != s.level {
		s.dev += (int64(s.level) - int64(l)) * inPeriod(t, s.periodShift())
		s.level = l
	}
}

// Value returns the utilisation estimate at time t.
func (s *Signal) Value(t sim.Time) float64 {
	s.decayTo(t)
	// value <= one, so the signed conversion is exact (and cheaper). The
	// compiler turns the division into a multiply; the outer conversion
	// rounds it, so no caller fuses it into an add.
	return float64(float64(int64(s.value)) / float64(one))
}

// Level returns the instantaneous activity level last set.
func (s *Signal) Level() float64 { return s.lv }

// Zero reports whether the signal is idle and fully decayed: its value,
// its level and the current period's activity are exactly 0, so Value
// returns 0 at every later time until the next SetLevel or Reset. An
// idle signal gets here by decay alone: a full deviation is 0 after at
// most valueShift+1 half-lives.
func (s *Signal) Zero() bool { return s.value == 0 && s.level == 0 && s.dev == 0 }

// Reset forces the signal to v at time t (used when migrating load), as
// if its level had been v since the current period began.
func (s *Signal) Reset(t sim.Time, v float64) {
	s.value = fixed(v)
	s.dev = (int64(s.value) - int64(s.level)) * inPeriod(t, s.periodShift())
	s.last = t
}

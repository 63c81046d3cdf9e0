package pelt

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestZeroValueIsIdle(t *testing.T) {
	var s Signal
	if v := s.Value(0); v != 0 {
		t.Fatalf("zero value = %v, want 0", v)
	}
	if v := s.Value(sim.Second); v != 0 {
		t.Fatalf("idle signal grew to %v", v)
	}
}

func TestRunningConvergesToOne(t *testing.T) {
	var s Signal
	s.SetRunning(0, true)
	v := s.Value(sim.Second)
	if v < 0.999 {
		t.Fatalf("after 1s running, value = %v, want ~1", v)
	}
	if v > 1 {
		t.Fatalf("value exceeded 1: %v", v)
	}
}

func TestHalfLife(t *testing.T) {
	var s Signal
	s.Reset(0, 1)
	s.SetRunning(0, false)
	v := s.Value(HalfLife)
	if math.Abs(v-0.5) > 1e-9 {
		t.Fatalf("after one half-life, value = %v, want 0.5", v)
	}
	v = s.Value(2 * HalfLife)
	if math.Abs(v-0.25) > 1e-9 {
		t.Fatalf("after two half-lives, value = %v, want 0.25", v)
	}
}

func TestRecentlyIdleStillLoaded(t *testing.T) {
	// The property behind Figure 2(a): a core busy for a while that just
	// went idle still shows substantial load 10ms later, while a long-idle
	// core shows ~0.
	var warm Signal
	warm.SetRunning(0, true)
	warm.SetRunning(100*sim.Millisecond, false)
	v := warm.Value(110 * sim.Millisecond)
	if v < 0.5 {
		t.Fatalf("recently idle core load = %v, want > 0.5", v)
	}
	var cold Signal
	if cv := cold.Value(110 * sim.Millisecond); cv != 0 {
		t.Fatalf("long-idle core load = %v, want 0", cv)
	}
}

func TestMonotoneTimeIgnoresPast(t *testing.T) {
	var s Signal
	s.SetRunning(0, true)
	v1 := s.Value(50 * sim.Millisecond)
	v2 := s.Value(10 * sim.Millisecond) // in the past: no-op
	if v1 != v2 {
		t.Fatalf("past query changed value: %v vs %v", v1, v2)
	}
}

func TestBoundedProperty(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		r := sim.NewRand(seed)
		var s Signal
		now := sim.Time(0)
		for i := 0; i < int(steps); i++ {
			now += r.Duration(0, 50*sim.Millisecond)
			s.SetRunning(now, r.Float64() < 0.5)
			v := s.Value(now)
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSetLevelConvergesToLevel(t *testing.T) {
	var s Signal
	s.SetLevel(0, 0.35)
	v := s.Value(sim.Second)
	if math.Abs(v-0.35) > 1e-6 {
		t.Fatalf("partial level converged to %v, want 0.35", v)
	}
	if s.Level() != 0.35 {
		t.Fatalf("Level() = %v", s.Level())
	}
	// Out-of-range levels clamp.
	s.SetLevel(sim.Second, 7)
	if s.Level() != 1 {
		t.Fatalf("level not clamped: %v", s.Level())
	}
}

func TestDutyCycleSteadyState(t *testing.T) {
	// A 50% duty cycle with a period well under the half-life should
	// hover near 0.5.
	var s Signal
	period := 2 * sim.Millisecond
	now := sim.Time(0)
	for i := 0; i < 2000; i++ {
		s.SetRunning(now, i%2 == 0)
		now += period
	}
	v := s.Value(now)
	if v < 0.4 || v > 0.6 {
		t.Fatalf("50%% duty cycle steady state = %v, want ~0.5", v)
	}
}

// TestYNInvTable checks the hard-coded table against its definition:
// (2^32-1)·y^n truncated, with y^32 = 1/2, as the kernel's generator
// prints it.
func TestYNInvTable(t *testing.T) {
	y := math.Pow(0.5, 1/32.0)
	for n, got := range runnableAvgYNInv {
		if want := uint32(float64(1<<32-1) * math.Pow(y, float64(n))); got != want {
			t.Errorf("runnableAvgYNInv[%d] = %#x, want %#x", n, got, want)
		}
	}
}

// TestDecayLoad: whole half-lives shift, 32 periods halve, the table
// rounds down by at most one unit, and nothing survives 63 half-lives.
func TestDecayLoad(t *testing.T) {
	const v = one
	if got := decayLoad(v, 32); got != (v>>1)*0xffffffff>>32 {
		t.Errorf("one half-life: %d", got)
	}
	if got := decayLoad(v, 63*32+1); got != 0 {
		t.Errorf("past 63 half-lives: %d, want 0", got)
	}
	for n := uint64(0); n < 40*32; n++ {
		want := float64(v) * math.Pow(0.5, float64(n)/32)
		if got := float64(decayLoad(v, n)); math.Abs(got-want) > 1+want*1e-9 {
			t.Errorf("decayLoad(2^32, %d) = %g, want %g", n, got, want)
		}
	}
}

// TestWithHalfLifePeriods: a half-life maps to 32 periods of the nearest
// power-of-two nanoseconds.
func TestWithHalfLifePeriods(t *testing.T) {
	for _, c := range []struct {
		h     sim.Duration
		shift uint8
	}{
		{2 * sim.Millisecond, 16}, {HalfLife, 20}, {32 * sim.Millisecond, 20},
		{3 << 20, 17}, {1, 1}, {1000 * sim.Second, maxShift},
	} {
		if got := WithHalfLife(c.h).shift; got != c.shift {
			t.Errorf("WithHalfLife(%v): period 2^%d ns, want 2^%d", c.h, got, c.shift)
		}
	}
}

// expSignal is the exponential the fixed-point signal replaced: it
// decays continuously, value' = level + (value-level)·2^(-dt/h).
type expSignal struct {
	value, level float64
	last         sim.Time
	h            sim.Duration
}

func (e *expSignal) at(t sim.Time) float64 {
	if t > e.last {
		f := math.Exp(-math.Ln2 / float64(e.h) * float64(t-e.last))
		e.value = e.level + (e.value-e.level)*f
		e.last = t
	}
	return e.value
}

// oracleBound is the most the fixed-point signal may differ from the
// exponential of the same half-life. The signal moves only at period
// boundaries, by at most 1-y ≈ 0.0214 of a unit step per period, so it
// trails the exponential by at most about that; quantisation (2^-32 per
// step) is far below it. Measured: 0.0159-0.0214 over the patterns
// below.
const oracleBound = 0.022

// oldBound is the most the signal may differ from the exponential it
// replaced, whose half-lives were 32 ms (PELT) and 2 ms (HWP): 32
// periods of 2^20 ns and 2^16 ns are 4.9% longer (33.55 ms and
// 2.10 ms). On a unit step the two exponentials part by at most
// 2^(-t/33.55ms) - 2^(-t/32ms) ≈ 0.017, at t ≈ 47 ms; the period lag
// above peaks early in a step, so the two do not add up. Measured:
// 0.0208-0.0279 over the patterns below.
const oldBound = 0.03

// TestFloatOracle drives the fixed-point signal and the exponential
// through busy, idle, spin and random duty-cycle patterns, under the
// PELT and the HWP half-life, reading them at random instants, next to
// the exponential of the same half-life (within oracleBound) and the
// float signal it replaced (within oldBound).
func TestFloatOracle(t *testing.T) {
	type seg struct {
		level float64
		d     sim.Duration
	}
	patterns := map[string]func(r *sim.Rand) seg{
		"busy-then-idle": func(r *sim.Rand) seg {
			return seg{float64(r.Intn(2)), r.Duration(50*sim.Millisecond, 400*sim.Millisecond)}
		},
		"spin": func(r *sim.Rand) seg {
			return seg{[]float64{1, 0.35, 0}[r.Intn(3)], r.Duration(100*sim.Microsecond, 8*sim.Millisecond)}
		},
		"duty-cycle": func(r *sim.Rand) seg {
			return seg{float64(r.Intn(2)), r.Duration(sim.Microsecond, 3*sim.Millisecond)}
		},
		"fine-levels": func(r *sim.Rand) seg {
			return seg{r.Float64(), r.Duration(sim.Microsecond, 40*sim.Millisecond)}
		},
	}
	for _, name := range []string{"busy-then-idle", "spin", "duty-cycle", "fine-levels"} {
		next := patterns[name]
		for _, c := range []struct {
			hl  Signal
			old sim.Duration
		}{{Signal{}, 32 * sim.Millisecond}, {WithHalfLife(2 * sim.Millisecond), 2 * sim.Millisecond}} {
			hl := c.hl
			h := sim.Duration(1) << (uint(hl.shift) + halfLifeLog)
			if hl.shift == 0 {
				h = HalfLife
			}
			r := sim.NewRand(9)
			fx, ex, old := hl, expSignal{h: h}, expSignal{h: c.old}
			now, worst, worstOld := sim.Time(0), 0.0, 0.0
			for i := 0; i < 5000; i++ {
				sg := next(r)
				fx.SetLevel(now, sg.level)
				ex.at(now)
				ex.level = sg.level
				old.at(now)
				old.level = sg.level
				end := now + sg.d
				for now < end {
					now += r.Duration(1, h/8)
					if now > end {
						now = end
					}
					v := fx.Value(now)
					if d := math.Abs(v - ex.at(now)); d > worst {
						worst = d
					}
					if d := math.Abs(v - old.at(now)); d > worstOld {
						worstOld = d
					}
				}
			}
			t.Logf("%s, half-life %v: largest difference %.4f, %.4f from the %v exponential", name, h, worst, worstOld, c.old)
			if worst > oracleBound {
				t.Errorf("%s, half-life %v: fixed point differs from the exponential by %.4f > %.3f", name, h, worst, oracleBound)
			}
			if worstOld > oldBound {
				t.Errorf("%s: fixed point differs from the %v exponential by %.4f > %.3f", name, c.old, worstOld, oldBound)
			}
		}
	}
}

// TestIdleSignalReachesZero: a signal that ran for a second and then
// idles is exactly zero after 33 half-lives, and stays so.
func TestIdleSignalReachesZero(t *testing.T) {
	for _, s := range []Signal{{}, WithHalfLife(2 * sim.Millisecond)} {
		h := HalfLife
		if s.shift != 0 {
			h = sim.Duration(1) << (uint(s.shift) + halfLifeLog)
		}
		s.SetRunning(0, true)
		s.SetRunning(sim.Second, false)
		if s.Zero() {
			t.Fatal("zero right after running")
		}
		end := sim.Second + 33*h
		for now := sim.Second; now < end; now += h / 3 {
			s.Value(now)
		}
		if v := s.Value(end); v != 0 || !s.Zero() {
			t.Fatalf("half-life %v: value %g after 33 idle half-lives, want exactly 0", h, v)
		}
	}
}

// TestResetCountsAsLevel: a reset rewrites the current period, so a
// signal reset to 0 and left idle stays exactly 0 at the next boundary.
func TestResetCountsAsLevel(t *testing.T) {
	var s Signal
	s.SetRunning(0, true)
	mid := HalfLife + HalfLife/64 + 1000 // inside a period
	s.Value(mid)
	s.Reset(mid, 0)
	s.SetLevel(mid, 0)
	if v := s.Value(mid + 4*sim.Millisecond); v != 0 || !s.Zero() {
		t.Fatalf("value %g after reset to 0, want 0", v)
	}
}

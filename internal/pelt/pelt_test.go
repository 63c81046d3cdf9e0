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

// TestSharedMemoBitIdentical drives signals that share one decay memo
// and memo-free twins through the same random schedules of SetLevel,
// Value and Reset, with both the PELT and the HWP half-life going
// through the one memo and many signals hitting, missing and evicting
// its entries. Every value must be bit-identical to the twin's.
func TestSharedMemoBitIdentical(t *testing.T) {
	r := sim.NewRand(5)
	var memo Memo
	const n = 24
	shared := make([]Signal, n)
	plain := make([]Signal, n)
	for i := range shared {
		h := HalfLife
		if i%2 == 1 {
			h = 2 * sim.Millisecond
		}
		shared[i], plain[i] = memo.Signal(h), WithHalfLife(h)
	}
	// Times advance on a coarse grid, so elapsed times recur across
	// signals (memo hits) but not always (misses and evictions).
	now := sim.Time(0)
	for step := 0; step < 20000; step++ {
		if r.Intn(4) == 0 {
			now += sim.Duration(1+r.Intn(40)) * 250 * sim.Microsecond
		}
		i := r.Intn(n)
		s, p := &shared[i], &plain[i]
		switch r.Intn(4) {
		case 0:
			lv := []float64{0, 0.35, 1, r.Float64()}[r.Intn(4)]
			s.SetLevel(now, lv)
			p.SetLevel(now, lv)
		case 1:
			v := r.Float64()
			s.Reset(now, v)
			p.Reset(now, v)
		default:
			if a, b := s.Value(now), p.Value(now); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("step %d signal %d: shared memo %v, memo-free %v", step, i, a, b)
			}
		}
	}
	halfLives := map[sim.Duration]bool{}
	for _, e := range memo.ent {
		halfLives[e.h] = true
	}
	if !halfLives[HalfLife] || !halfLives[2*sim.Millisecond] {
		t.Fatalf("memo holds half-lives %v, want both", halfLives)
	}
}

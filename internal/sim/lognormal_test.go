package sim

import (
	"math"
	"testing"
)

// logNormalDurOracle derives LogNormalDur's parameters on every draw,
// straight from their definition, with the package's portable exp and
// log. It is the reference the precomputed LogNormal must match bit for
// bit.
func logNormalDurOracle(r *Rand, mean Duration, cv float64) Duration {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma := math.Sqrt(log(1 + float64(cv*cv)))
	mu := log(float64(mean)) - float64(float64(sigma*sigma)/2)
	v := exp(r.Normal(mu, sigma))
	lo, hi := float64(mean)/10, float64(mean)*10
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return Duration(v)
}

// TestLogNormalMatchesOracle sweeps (mean, cv) over the degenerate
// cases (mean <= 0, cv <= 0, a cv so small sigma rounds to 0), tiny and
// huge means, and cvs wide enough that most draws hit the clamps. Two
// identically seeded streams must give the same durations from
// LogNormal.Draw, LogNormalDur and the oracle, and the same next
// Uint64, which shows every side made the same number of draws.
func TestLogNormalMatchesOracle(t *testing.T) {
	means := []Duration{math.MinInt64, -Millisecond, 0, 1, 3, 10, 999, Microsecond, 12 * Millisecond, Second, 1 << 40, math.MaxInt64 / 10, math.MaxInt64}
	cvs := []float64{math.Inf(-1), -1, 0, 1e-300, 1e-9, 0.01, 0.2, 0.3, 0.5, 1, 1.4, 3, 10, 1e6, math.Inf(1), math.NaN()}
	const draws = 10000
	for mi, mean := range means {
		for ci, cv := range cvs {
			seed := uint64(mi*len(cvs) + ci + 1)
			want, got, wrap := NewRand(seed), NewRand(seed), NewRand(seed)
			ln := NewLogNormal(mean, cv)
			for k := 0; k < draws; k++ {
				w := logNormalDurOracle(want, mean, cv)
				if g := ln.Draw(got); g != w {
					t.Fatalf("mean=%d cv=%g draw %d: Draw=%d, oracle=%d", mean, cv, k, g, w)
				}
				if g := wrap.LogNormalDur(mean, cv); g != w {
					t.Fatalf("mean=%d cv=%g draw %d: LogNormalDur=%d, oracle=%d", mean, cv, k, g, w)
				}
			}
			w := want.Uint64()
			if g := got.Uint64(); g != w {
				t.Fatalf("mean=%d cv=%g: Draw consumed a different number of draws (next %x, oracle %x)", mean, cv, g, w)
			}
			if g := wrap.Uint64(); g != w {
				t.Fatalf("mean=%d cv=%g: LogNormalDur consumed a different number of draws (next %x, oracle %x)", mean, cv, g, w)
			}
		}
	}
}

package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random generator
// (xorshift128+). Every workload run is seeded explicitly so repeats are
// reproducible across machines and Go versions; math/rand/v2 does not
// guarantee stream stability across releases, so we own the generator.
type Rand struct {
	s0, s1 uint64
}

// NewRand returns a generator seeded from seed via splitmix64, so that
// consecutive integer seeds yield well-separated streams.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
	return r
}

// Uint64 returns the next raw 64-bit value.
func (r *Rand) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Float64 returns a uniform value in [0, 1). The compiler turns the
// division into a multiply; the conversion rounds it (exactly: the
// divisor is a power of two), so no caller fuses it into an add.
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Duration returns a uniform duration in [lo, hi].
func (r *Rand) Duration(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(r.Uint64()%uint64(hi-lo+1))
}

// Normal returns a normally distributed value with the given mean and
// standard deviation. The product is rounded before the add, so no
// architecture fuses the two.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + float64(stddev*r.normFloat64())
}

// unit returns a uniform value in (0, 1], whose log is finite.
func (r *Rand) unit() float64 {
	return 1 - r.Float64()
}

// normFloat64 returns a standard normal value by the ziggurat
// (ziggurat.go); more than 99% of draws return from the first test. The
// tail and the wedges use the portable exp and log (fmath.go).
func (r *Rand) normFloat64() float64 {
	z := &zigNormal
	for {
		u := r.Uint64()
		i := u >> 3 & 0x7F
		j := int64(u) >> 11 // the top 53 bits, signed
		x := float64(j) * z.w[i]
		a := uint64(j)
		if j < 0 {
			a = uint64(-j)
		}
		if a < z.k[i] {
			return x
		}
		if i == 0 {
			// The tail past zigNormalR.
			for {
				x = float64(-log(r.unit()) * (1.0 / zigNormalR))
				y := -log(r.unit())
				if y+y >= float64(x*x) {
					break
				}
			}
			if j > 0 {
				return zigNormalR + x
			}
			return -zigNormalR - x
		}
		if z.f[i]+float64(r.Float64()*(z.f[i-1]-z.f[i])) < exp(-0.5*x*x) {
			return x
		}
	}
}

// expFloat64 returns an exponential value with mean 1 by the ziggurat,
// as normFloat64 does.
func (r *Rand) expFloat64() float64 {
	z := &zigExp
	for {
		u := r.Uint64()
		i := u >> 3 & 0xFF
		j := u >> 11 // the top 53 bits
		x := float64(j) * z.w[i]
		if j < z.k[i] {
			return x
		}
		if i == 0 {
			return zigExpR - log(r.unit())
		}
		if z.f[i]+float64(r.Float64()*(z.f[i-1]-z.f[i])) < exp(-x) {
			return x
		}
	}
}

// LogNormalDur returns a log-normally jittered duration around mean with
// the given coefficient of variation, clamped to [mean/10, mean*10].
// Task lifetimes in shell-script style workloads are heavy-tailed; this
// keeps the tail without letting a single sample dominate a run. A
// caller whose mean and cv are fixed should build a LogNormal once.
func (r *Rand) LogNormalDur(mean Duration, cv float64) Duration {
	return NewLogNormal(mean, cv).Draw(r)
}

// LogNormal is the distribution LogNormalDur draws from, with its
// parameters derived once. A zero or negative mean always yields 0 and
// a zero or negative cv always yields mean, both without a draw.
type LogNormal struct {
	mean      Duration
	jitter    bool
	mu, sigma float64
	lo, hi    float64
}

// NewLogNormal derives the distribution of LogNormalDur(mean, cv).
func NewLogNormal(mean Duration, cv float64) LogNormal {
	if mean <= 0 {
		return LogNormal{}
	}
	if cv <= 0 {
		return LogNormal{mean: mean}
	}
	sigma := math.Sqrt(log(1 + float64(cv*cv)))
	return LogNormal{
		mean:   mean,
		jitter: true,
		mu:     log(float64(mean)) - float64(float64(sigma*sigma)/2),
		sigma:  sigma,
		lo:     float64(mean) / 10,
		hi:     float64(mean) * 10,
	}
}

// Draw returns one sample, making exactly the draws from r that
// LogNormalDur makes.
func (l LogNormal) Draw(r *Rand) Duration {
	if !l.jitter {
		return l.mean
	}
	v := exp(r.Normal(l.mu, l.sigma))
	if v < l.lo {
		v = l.lo
	}
	if v > l.hi {
		v = l.hi
	}
	return Duration(v)
}

// Exp returns an exponentially distributed duration with the given mean,
// for Poisson arrival processes in the server workloads.
func (r *Rand) Exp(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	return Duration(r.expFloat64() * float64(mean))
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"
)

// TestPortableExpLog compares the portable exp and log with the
// standard library over a wide range. The standard library may run
// another algorithm (amd64 assembly, an FMA path), so the two may
// differ in the last bits: at most maxULPs, at the special values too.
func TestPortableExpLog(t *testing.T) {
	ulps := func(a, b float64) uint64 {
		x, y := math.Float64bits(a), math.Float64bits(b)
		if x > y {
			return x - y
		}
		return y - x
	}
	const maxULPs = 2
	r := NewRand(17)
	for i := 0; i < 200000; i++ {
		x := (r.Float64()*2 - 1) * 700 // math.Exp's amd64 assembly overflows early past 709.7
		if i%2 == 0 {
			x = (r.Float64()*2 - 1) * 4
		}
		if d := ulps(exp(x), math.Exp(x)); d > maxULPs {
			t.Fatalf("exp(%v) = %v, math.Exp %v (%d ulps)", x, exp(x), math.Exp(x), d)
		}
		y := math.Ldexp(r.Float64()+0.5, r.Intn(2000)-1000)
		if d := ulps(log(y), math.Log(y)); d > maxULPs {
			t.Fatalf("log(%v) = %v, math.Log %v (%d ulps)", y, log(y), math.Log(y), d)
		}
	}
	for _, x := range []float64{0, 1e-300, 1, 2, 710, -745, -746, math.Inf(1), math.Inf(-1), math.NaN(), -1} {
		for _, p := range [][2]float64{{exp(x), math.Exp(x)}, {log(x), math.Log(x)}} {
			if math.IsNaN(p[0]) != math.IsNaN(p[1]) || !math.IsNaN(p[0]) && ulps(p[0], p[1]) > maxULPs {
				t.Errorf("special value %v: portable %v, math %v", x, p[0], p[1])
			}
		}
	}
}

// TestPortableExpRange: exp is finite up to its overflow threshold,
// where 2^k itself overflows (math.Exp's amd64 assembly returns +Inf
// there early), and subnormal results below -708.4 match math.Exp.
func TestPortableExpRange(t *testing.T) {
	if v := exp(709.78); math.IsInf(v, 0) || v < 1.79e308 {
		t.Errorf("exp(709.78) = %v, want about 1.7968e308", v)
	}
	for _, x := range []float64{-708.5, -720, -740} {
		if v, w := exp(x), math.Exp(x); v != w {
			t.Errorf("exp(%v) = %v, math.Exp %v", x, v, w)
		}
	}
}

// TestZigguratTables checks the built tables against entries of Go's
// math/rand tables (32-bit draws, float32 entries): the same strips, to
// float32 precision.
func TestZigguratTables(t *testing.T) {
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 2e-7*math.Abs(want) {
			t.Errorf("%s = %.9g, Go's table %.9g", name, got, want)
		}
	}
	n, e := &zigNormal, &zigExp
	for _, c := range []struct {
		i      int
		k      uint32
		w, f   float64
		ke     uint32
		we, fe float64
	}{
		{0, 0x76ad2212, 1.7290405e-09, 1, 0xe290a139, 2.0249555e-09, 1},
		{2, 0x600f1b53, 1.6897518e-10, 0.9362827, 0x9beadebc, 2.4409617e-11, 0.90046996},
		{64, 0x7eddc78e, 7.1389966e-10, 0.30876362, 0xfd1e48d6, 2.2116936e-10, 0.38677382},
	} {
		near(fmt.Sprintf("normal k[%d]", c.i), float64(n.k[c.i]>>21), float64(c.k))
		near(fmt.Sprintf("normal w[%d]", c.i), n.w[c.i]*(1<<21), c.w)
		near(fmt.Sprintf("normal f[%d]", c.i), n.f[c.i], c.f)
		near(fmt.Sprintf("exp k[%d]", c.i), float64(e.k[c.i]>>21), float64(c.ke))
		near(fmt.Sprintf("exp w[%d]", c.i), e.w[c.i]*(1<<21), c.we)
		near(fmt.Sprintf("exp f[%d]", c.i), e.f[c.i], c.fe)
	}
	near("normal w[127]", n.w[127]*(1<<21), 1.6030948e-09)
	near("normal f[127]", n.f[127], 0.0026696292)
	near("exp w[255]", e.w[255]*(1<<21), 1.7921248e-09)
	near("exp f[255]", e.f[255], 0.00045413437)
}

// moments returns the sample mean, variance, skewness and excess
// kurtosis of xs.
func moments(xs []float64) (mean, variance, skew, kurt float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - mean
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	m2, m3, m4 = m2/n, m3/n, m4/n
	return mean, m2, m3 / math.Pow(m2, 1.5), m4/(m2*m2) - 3
}

// ksStat returns the Kolmogorov-Smirnov distance between the sample
// xs and the distribution cdf.
func ksStat(xs []float64, cdf func(float64) float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	d := 0.0
	for i, x := range s {
		c := cdf(x)
		d = math.Max(d, math.Max(c-float64(i)/n, float64(i+1)/n-c))
	}
	return d
}

// ksCritical is the Kolmogorov-Smirnov distance that a sample of n
// draws from the hypothesised distribution exceeds with probability
// 0.1%: 1.95/√n.
func ksCritical(n int) float64 { return 1.95 / math.Sqrt(float64(n)) }

const drawN = 200000

// TestNormalDistribution: the ziggurat's moments and its KS distance to
// the normal CDF, at a fixed seed.
func TestNormalDistribution(t *testing.T) {
	r := NewRand(21)
	xs := make([]float64, drawN)
	for i := range xs {
		xs[i] = r.Normal(3, 2)
	}
	m, v, s, k := moments(xs)
	if math.Abs(m-3) > 0.02 || math.Abs(v-4) > 0.05 || math.Abs(s) > 0.03 || math.Abs(k) > 0.06 {
		t.Errorf("Normal(3, 2): mean %.4f var %.4f skew %.4f kurt %.4f", m, v, s, k)
	}
	d := ksStat(xs, func(x float64) float64 { return 0.5 * math.Erfc(-(x-3)/(2*math.Sqrt2)) })
	if d > ksCritical(drawN) {
		t.Errorf("Normal KS distance %.5f > %.5f", d, ksCritical(drawN))
	}
	// The tail past the base strip (|x| > 3.44) carries 0.06% of the mass.
	tail := 0
	for _, x := range xs {
		if math.Abs(x-3) > 2*zigNormalR {
			tail++
		}
	}
	if want := drawN * math.Erfc(zigNormalR/math.Sqrt2); math.Abs(float64(tail)-want) > 4*math.Sqrt(want) {
		t.Errorf("%d draws in the normal tail, want about %.0f", tail, want)
	}
}

// TestExpDistribution: the exponential ziggurat's moments and KS
// distance at a fixed seed; Exp truncates to whole nanoseconds, so the
// mean is large.
func TestExpDistribution(t *testing.T) {
	r := NewRand(22)
	const mean = Second
	xs := make([]float64, drawN)
	for i := range xs {
		xs[i] = float64(r.Exp(mean)) / float64(mean)
	}
	m, v, s, k := moments(xs)
	if math.Abs(m-1) > 0.01 || math.Abs(v-1) > 0.03 || math.Abs(s-2) > 0.1 || math.Abs(k-6) > 0.8 {
		t.Errorf("Exp: mean %.4f var %.4f skew %.4f kurt %.4f (want 1, 1, 2, 6)", m, v, s, k)
	}
	d := ksStat(xs, func(x float64) float64 { return 1 - math.Exp(-x) })
	if d > ksCritical(drawN) {
		t.Errorf("Exp KS distance %.5f > %.5f", d, ksCritical(drawN))
	}
	if r.Exp(0) != 0 || r.Exp(-Second) != 0 {
		t.Error("Exp of a non-positive mean is not 0")
	}
}

// TestLogNormalDistribution: log-normal draws away from the clamps have
// the requested mean and coefficient of variation, and their logs pass
// a KS test against the normal with LogNormal's mu and sigma.
func TestLogNormalDistribution(t *testing.T) {
	r := NewRand(23)
	const mean, cv = Second, 0.3 // the clamps at mean/10 and 10·mean sit past 7 sigma
	ln := NewLogNormal(mean, cv)
	xs := make([]float64, drawN)
	logs := make([]float64, drawN)
	for i := range xs {
		d := ln.Draw(r)
		xs[i] = float64(d) / float64(mean)
		logs[i] = math.Log(float64(d))
	}
	m, v, _, _ := moments(xs)
	if math.Abs(m-1) > 0.005 || math.Abs(math.Sqrt(v)-cv) > 0.005 {
		t.Errorf("LogNormal(1s, 0.3): mean %.4f cv %.4f", m, math.Sqrt(v))
	}
	d := ksStat(logs, func(x float64) float64 { return 0.5 * math.Erfc(-(x-ln.mu)/(ln.sigma*math.Sqrt2)) })
	if d > ksCritical(drawN) {
		t.Errorf("log of LogNormal KS distance %.5f > %.5f", d, ksCritical(drawN))
	}
}

// TestDrawStreamsPinned pins the exact bits of the first draws of each
// distribution at one seed. They come from integer arithmetic and
// explicitly rounded float operations only, so they must be the same on
// every host, with or without FMA.
func TestDrawStreamsPinned(t *testing.T) {
	r := NewRand(1)
	h := sha256.New()
	var b [8]byte
	ln := NewLogNormal(12*Millisecond, 0.4)
	for i := 0; i < 10000; i++ {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.Normal(0, 1)))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(r.Exp(Millisecond)))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(ln.Draw(r)))
		h.Write(b[:])
	}
	const pinned = "5530683f15d9c9603f4d15725b0657fdb14c239eb5ccdb453dd48d72a65fc463"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != pinned {
		t.Errorf("draw streams sha256 %s, pinned %s", got, pinned)
	}
}

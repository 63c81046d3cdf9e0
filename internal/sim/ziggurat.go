package sim

import "math"

// 64-bit ziggurats (Marsaglia and Tsang, "The Ziggurat Method for
// Generating Random Variables", 2000) for Rand.Normal, 128 strips, and
// Rand.Exp, 256 strips. A draw takes its strip from bits 3-9 (normal)
// or 3-10 (exponential) of one Uint64 and its value from the top 53
// bits, so the two share no bit and the value keeps double precision.
// (The 32-bit form in Go's math/rand takes the strip from the value's
// own low bits.) The tables are built once, from
// the paper's recurrence and its constants (as Go's math/rand uses
// them), with the package's exp and log and no product that feeds an
// add, so they are the same on every host.

const (
	zigNormalR = 3.442619855899      // start of the normal tail
	zigNormalV = 9.91256303526217e-3 // area of each normal strip
	zigExpR    = 7.69711747013104972 // start of the exponential tail
	zigExpV    = 3.949659822581572e-3
)

// For strip i, a draw whose top 53 bits j satisfy |j| < k[i] is
// accepted at once as x = j·w[i]; f[i] is the density at the strip's
// outer edge.
var (
	zigNormal struct {
		k    [128]uint64
		w, f [128]float64
	}
	zigExp struct {
		k    [256]uint64
		w, f [256]float64
	}
)

func init() {
	n := &zigNormal
	buildZiggurat(n.k[:], n.w[:], n.f[:], zigNormalR, zigNormalV, 1<<52,
		func(x float64) float64 { return exp(-0.5 * x * x) },
		func(y float64) float64 { return math.Sqrt(-2 * log(y)) })
	e := &zigExp
	buildZiggurat(e.k[:], e.w[:], e.f[:], zigExpR, zigExpV, 1<<53,
		func(x float64) float64 { return exp(-x) },
		func(y float64) float64 { return -log(y) })
}

// buildZiggurat fills one ziggurat's tables for the unnormalised
// density pdf with inverse inv: r is the base strip's outer edge, v
// each strip's area and scale the largest magnitude of a draw.
func buildZiggurat(k []uint64, w, f []float64, r, v, scale float64, pdf, inv func(float64) float64) {
	n := len(k)
	q := v / pdf(r)
	k[0], k[1] = uint64(float64(r/q*scale)), 0
	w[0], w[n-1] = q/scale, r/scale
	f[0], f[n-1] = 1, pdf(r)
	d, t := r, r
	for i := n - 2; i >= 1; i-- {
		d = inv(v/d + pdf(d))
		k[i+1] = uint64(float64(d / t * scale))
		t = d
		f[i] = pdf(d)
		w[i] = d / scale
	}
}

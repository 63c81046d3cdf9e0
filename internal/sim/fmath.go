package sim

import "math"

// Portable exp and log for the random draws: log is ported from the
// pure-Go version in Go's math/log.go (Copyright 2009 The Go Authors;
// BSD-style license), itself from FreeBSD's msun; exp is table-driven
// (Tang, "Table-driven implementation of the exponential function in
// IEEE floating-point arithmetic", 1989). The
// standard library may run an assembly version, and on amd64 its Exp
// takes a fused multiply-add path when the CPU has FMA, so its last bit
// depends on the host. Here every product that feeds an add or a
// subtract is rounded by an explicit float64 conversion, which the Go
// spec says no architecture may fuse: the result is the same on every
// host.

// exp2Tab[j] is 2^(j/64), correctly rounded.
var exp2Tab = [64]float64{
	1.0, 1.0108892860517005, 1.0218971486541166, 1.0330248790212284,
	1.0442737824274138, 1.0556451783605572, 1.0671404006768237, 1.0787607977571199,
	1.0905077326652577, 1.102382583307841, 1.1143867425958924, 1.1265216186082418,
	1.1387886347566916, 1.1511892299529827, 1.1637248587775775, 1.1763969916502812,
	1.189207115002721, 1.202156731452703, 1.215247359980469, 1.22848053610687,
	1.241857812073484, 1.255380757024691, 1.2690509571917332, 1.2828700160787783,
	1.2968395546510096, 1.3109612115247644, 1.3252366431597413, 1.339667524053303,
	1.3542555469368927, 1.3690024229745905, 1.383909881963832, 1.3989796725383112,
	1.4142135623730951, 1.42961333839197, 1.4451808069770467, 1.460917794180647,
	1.4768261459394993, 1.4929077282912648, 1.5091644275934228, 1.5255981507445384,
	1.5422108254079407, 1.559004400237837, 1.5759808451078865, 1.593142151342267,
	1.6104903319492543, 1.6280274218573478, 1.645755478153965, 1.6636765803267364,
	1.681792830507429, 1.7001063537185235, 1.718619298122478, 1.7373338352737062,
	1.7562521603732995, 1.7753764925265212, 1.7947090750031072, 1.8142521755003989,
	1.8340080864093424, 1.8539791250833855, 1.8741676341103, 1.8945759815869656,
	1.9152065613971474, 1.9360617934922943, 1.9571441241754002, 1.978456026387951,
}

// exp returns e**x by Tang's table method: x = (64m + j)·ln2/64 + r
// with |r| <= ln2/128, so e**x = 2^m · 2^(j/64) · e^r, and e^r - 1 is a
// degree-5 polynomial whose truncation error there is below 2^-54. It
// needs no division, which makes it about twice as fast as the
// polynomial-quotient method of Go's math/exp.go, and it is within 2
// ulps of the standard library (TestPortableExpLog).
func exp(x float64) float64 {
	const (
		overflow  = 7.09782712893383973096e+02
		underflow = -7.45133219101941108420e+02

		invL = 92.33248261689366     // 64/ln2
		l1   = 0.010830417275428772  // ln2/64 rounded to 21 bits: k·l1 is exact
		l2   = 7.420820373486988e-09 // ln2/64 - l1
	)
	switch {
	case math.IsNaN(x):
		return x
	case x > overflow:
		return math.Inf(1)
	case x < underflow:
		return 0
	}
	kf := float64(x * invL)
	var k int
	if kf < 0 {
		k = int(kf - 0.5)
	} else {
		k = int(kf + 0.5)
	}
	r := (x - float64(float64(k)*l1)) - float64(float64(k)*l2)
	q := r + float64(float64(r*r)*(0.5+float64(r*(1.0/6+float64(r*(1.0/24+float64(r*(1.0/120))))))))
	t := exp2Tab[k&63]
	y := t + float64(t*q)
	m := k >> 6
	if m < -1021 || m > 1023 {
		return math.Ldexp(y, m) // subnormal, or 2^m itself overflows
	}
	// y is within [0.99, 1.99], so y·2^m is normal and the multiply by
	// the power of two is exact: what Ldexp returns, without its calls.
	return y * math.Float64frombits(uint64(m+1023)<<52)
}

// log returns the natural logarithm of x.
func log(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01 /* 3fe62e42 fee00000 */
		ln2Lo = 1.90821492927058770002e-10 /* 3dea39ef 35793c76 */
		l1    = 6.666666666666735130e-01   /* 3FE55555 55555593 */
		l2    = 3.999999999940941908e-01   /* 3FD99999 9997FA04 */
		l3    = 2.857142874366239149e-01   /* 3FD24924 94229359 */
		l4    = 2.222219843214978396e-01   /* 3FCC71C5 1D8E78AF */
		l5    = 1.818357216161805012e-01   /* 3FC74664 96CB03DE */
		l6    = 1.531383769920937332e-01   /* 3FC39A09 D078C69F */
		l7    = 1.479819860511658591e-01   /* 3FC2F112 DF3E5244 */
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x < 0:
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	}
	// reduce
	f1, ki := math.Frexp(x)
	if f1 < math.Sqrt2/2 {
		f1 *= 2
		ki--
	}
	f := f1 - 1
	k := float64(ki)
	// compute
	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	rr := t1 + t2
	hfsq := float64(0.5 * f * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+rr)) + float64(k*ln2Lo))) - f)
}

package metrics

import (
	"testing"

	"repro/internal/sim"
)

// checkPctlHist asserts the cursor invariant (below = samples in the
// buckets before the cursor) and that Value answers exactly what a full
// Percentile scan of the same histogram answers.
func checkPctlHist(t *testing.T, q *PctlHist, step int) {
	t.Helper()
	var below int64
	for _, c := range q.h.counts[:q.i] {
		below += c
	}
	if below != q.below {
		t.Fatalf("op %d: cursor %d carries below=%d, buckets before it hold %d", step, q.i, q.below, below)
	}
	if got, want := q.Value(), q.Hist().Percentile(q.p); got != want {
		t.Fatalf("op %d: p%g Value()=%d, Percentile=%d (n=%d)", step, q.p, got, want, q.Count())
	}
	if q.Count() != q.Hist().Count() {
		t.Fatalf("op %d: Count()=%d, histogram holds %d", step, q.Count(), q.Hist().Count())
	}
}

// fuzzSample decodes one sample from two bytes: b1 shifted left by the
// low six bits of b0 (mod 56, so it stays below 2^63), negated when b0's
// high bit is set. Shift 0 with b1 < 32 lands in the unit buckets; large
// shifts jump many octaves and grow counts.
func fuzzSample(b0, b1 byte) sim.Duration {
	d := sim.Duration(b1) << (b0 & 0x3f % 56)
	if b0&0x80 != 0 {
		d = -d
	}
	return d
}

// Op kinds, in the top two bits of an op byte. The low six bits are a
// run length minus one for the run kinds. A run counts as one operation,
// so between two checks the cursor may have to cross many buckets.
const (
	pctlOpQuery   = 0 << 6 // Value only
	pctlOpAdd     = 1 << 6 // one sample from the next two bytes
	pctlOpFalling = 2 << 6 // a run falling by 1/8 per sample from the decoded start
	pctlOpSame    = 3 << 6 // a run of copies of the decoded sample
)

// FuzzPctlHist drives a PctlHist at one percentile through a decoded
// sequence of Add and Value operations and checks after every one that
// Value equals Hist().Percentile(p), the full bucket scan it replaces.
// pc selects p = (pc mod 10001)/100: 0, 100, every integer between and
// the fractions in between.
func FuzzPctlHist(f *testing.F) {
	type seed struct {
		pc  uint16
		ops []byte
	}
	seeds := []seed{
		{9500, nil},                                // empty
		{9500, []byte{pctlOpQuery}},                // query on empty
		{5000, []byte{pctlOpAdd, 5, 100}},          // one sample, 3200 ns
		{0, []byte{pctlOpAdd, 0x80 | 3, 16}},       // one negative sample
		{10000, []byte{pctlOpSame | 0x3f, 0, 7}},   // 64 samples in one unit bucket
		{9990, []byte{pctlOpSame | 0x3f, 12, 200}}, // 64 samples in one wide bucket
		{9500, []byte{ // falling singles walk the cursor back bucket by bucket
			pctlOpAdd, 40, 1, pctlOpAdd, 30, 1, pctlOpAdd, 20, 1,
			pctlOpAdd, 10, 1, pctlOpAdd, 0, 5, pctlOpAdd, 0, 0,
		}},
		{9500, []byte{ // a high plateau, then a falling run far below it
			pctlOpSame | 0x13, 30, 255, pctlOpQuery,
			pctlOpFalling | 0x3f, 12, 255, pctlOpQuery,
		}},
		{3333, []byte{ // octave jumps that grow counts several times
			pctlOpAdd, 0, 3, pctlOpAdd, 50, 1, pctlOpAdd, 0, 31,
			pctlOpAdd, 55, 255, pctlOpSame | 0x07, 0, 32, pctlOpQuery,
		}},
		{100, []byte{pctlOpFalling | 0x3f, 20, 255, pctlOpFalling | 0x3f, 8, 255}},
	}
	for _, s := range seeds {
		f.Add(s.pc, s.ops)
	}
	f.Fuzz(func(t *testing.T, pc uint16, ops []byte) {
		q := NewPctlHist(float64(pc%10001) / 100)
		checkPctlHist(t, &q, 0)
		for step := 1; len(ops) > 0; step++ {
			op := ops[0]
			ops = ops[1:]
			kind := op &^ 0x3f
			if kind != pctlOpQuery {
				if len(ops) < 2 {
					return
				}
				d := fuzzSample(ops[0], ops[1])
				ops = ops[2:]
				run := int(op&0x3f) + 1
				switch kind {
				case pctlOpAdd:
					q.Add(d)
				case pctlOpFalling:
					for k := 0; k < run; k++ {
						q.Add(d)
						d -= d / 8
					}
				case pctlOpSame:
					for k := 0; k < run; k++ {
						q.Add(d)
					}
				}
			}
			checkPctlHist(t, &q, step)
		}
	})
}

// TestPctlHistMatchesPercentile runs long seeded add/query mixes at the
// percentiles hedging and reporting use, with heavy-tailed samples and
// bursts of adds between queries.
func TestPctlHistMatchesPercentile(t *testing.T) {
	for _, p := range []float64{0, 1, 50, 95, 99, 99.9, 100} {
		r := sim.NewRand(uint64(p*10) + 1)
		q := NewPctlHist(p)
		ln := sim.NewLogNormal(400*sim.Microsecond, 1.5)
		for step := 0; step < 20000; step++ {
			for k := r.Intn(4); k >= 0; k-- {
				q.Add(ln.Draw(r))
			}
			checkPctlHist(t, &q, step)
		}
	}
}

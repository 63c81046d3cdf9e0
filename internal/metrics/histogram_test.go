package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// exactPercentile is the oracle the histogram approximates: the sample
// at sorted index int(p/100*(n-1)) of a sorted copy; 0 if empty.
func exactPercentile(samples []sim.Duration, p float64) sim.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	idx := int(p / 100 * float64(len(s)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// TestLatIndexRoundTrip checks that every bucket's bounds invert its
// index: latIndex maps [lo, hi) back to the bucket, and the ranges tile
// the value space without gaps.
func TestLatIndexRoundTrip(t *testing.T) {
	prevHi := int64(0)
	// 50 octaves past the unit buckets — far above any simulated
	// latency, well below int64 shift overflow.
	for i := 0; i < 50*latSubCount; i++ {
		lo, hi := latBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d: lo=%d, want %d (gap or overlap)", i, lo, prevHi)
		}
		prevHi = hi
		if got := latIndex(lo); got != i {
			t.Fatalf("latIndex(%d)=%d, want %d", lo, got, i)
		}
		if got := latIndex(hi - 1); got != i {
			t.Fatalf("latIndex(%d)=%d, want %d", hi-1, got, i)
		}
	}
}

// TestLatHistExactSmall verifies values below one octave's sub-bucket
// count are recorded exactly.
func TestLatHistExactSmall(t *testing.T) {
	var h LatHist
	var exact []sim.Duration
	for v := 0; v < latSubCount; v++ {
		h.Add(sim.Duration(v))
		exact = append(exact, sim.Duration(v))
	}
	for p := 0.0; p <= 100; p += 2.5 {
		if got, want := h.Percentile(p), exactPercentile(exact, p); got != want {
			t.Fatalf("p%.1f = %d, want %d (small values must be exact)", p, int64(got), int64(want))
		}
	}
}

// TestLatHistErrorBound pins the histogram's relative error against
// exact sorted-sample percentiles: within 2^-latSubBits (3.125%) plus
// one nanosecond of integer slack, over a deterministic heavy-tailed
// sample set spanning six decades.
func TestLatHistErrorBound(t *testing.T) {
	var h LatHist
	// Deterministic LCG; values from ~1ns to ~100ms with a long tail.
	x := uint64(12345)
	samples := make([]sim.Duration, 0, 20000)
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		// Exponentiate a uniform draw so every decade is populated.
		u := float64(x>>11) / float64(1<<53)
		v := sim.Duration(math.Pow(10, 8*u))
		samples = append(samples, v)
		h.Add(v)
	}
	const bound = 1.0/float64(latSubCount) + 1e-9
	for _, p := range []float64{0, 10, 50, 90, 95, 99, 99.9, 100} {
		want := exactPercentile(samples, p)
		got := h.Percentile(p)
		relErr := math.Abs(float64(got-want)) / math.Max(float64(want), 1)
		if relErr > bound && absDur(got-want) > 1 {
			t.Errorf("p%v: hist=%v exact=%v relErr=%.4f > %.4f", p, got, want, relErr, bound)
		}
	}
	if h.Count() != int64(len(samples)) {
		t.Fatalf("Count=%d, want %d", h.Count(), len(samples))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	if h.Max() != samples[len(samples)-1] {
		t.Fatalf("Max=%v, want %v", h.Max(), samples[len(samples)-1])
	}
}

func absDur(d sim.Duration) sim.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// TestLatHistPercentileMonotone checks percentile monotonicity and the
// p100 == max identity the CI smoke job relies on.
func TestLatHistPercentileMonotone(t *testing.T) {
	var h LatHist
	x := uint64(99)
	for i := 0; i < 5000; i++ {
		x = x*2862933555777941757 + 3037000493
		h.Add(sim.Duration(x % 50_000_000))
	}
	prev := sim.Duration(-1)
	for p := 0.0; p <= 100; p += 0.5 {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("p%v=%v < p%v=%v (not monotone)", p, v, p-0.5, prev)
		}
		prev = v
	}
	if h.Percentile(100) != h.Max() {
		t.Fatalf("p100=%v, want max %v", h.Percentile(100), h.Max())
	}
}

// TestLatHistEmptyAndNegative covers the degenerate inputs.
func TestLatHistEmptyAndNegative(t *testing.T) {
	var h LatHist
	if h.Percentile(99) != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Add(-5) // clamps to 0
	if h.Percentile(50) != 0 || h.Count() != 1 {
		t.Fatalf("negative sample: p50=%v count=%d, want 0, 1", h.Percentile(50), h.Count())
	}
}

// TestLatHistMerge verifies merging equals recording everything in one
// histogram.
func TestLatHistMerge(t *testing.T) {
	var a, b, both LatHist
	for i := 0; i < 1000; i++ {
		v := sim.Duration(i * i)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
		both.Add(v)
	}
	a.Merge(&b)
	a.Merge(nil) // no-op
	if a.Count() != both.Count() || a.Max() != both.Max() {
		t.Fatalf("merge: count=%d max=%v, want %d %v", a.Count(), a.Max(), both.Count(), both.Max())
	}
	for _, p := range []float64{1, 50, 99, 99.9} {
		if a.Percentile(p) != both.Percentile(p) {
			t.Fatalf("p%v: merged=%v combined=%v", p, a.Percentile(p), both.Percentile(p))
		}
	}
}

// TestLatHistBuckets checks the bucket iterator reports every sample
// once, in value order.
func TestLatHistBuckets(t *testing.T) {
	var h LatHist
	for _, v := range []sim.Duration{3, 3, 70, 1_000_000} {
		h.Add(v)
	}
	var total int64
	prevHi := int64(-1)
	h.Buckets(func(lo, hi, count int64) {
		if lo <= prevHi-1 {
			t.Fatalf("buckets out of order: lo=%d after hi=%d", lo, prevHi)
		}
		prevHi = hi
		total += count
	})
	if total != 4 {
		t.Fatalf("bucket counts sum to %d, want 4", total)
	}
}

// TestLatencyTailMatchesHist checks that the wake-latency tail is a
// monotone summary of the histogram's own percentiles and survives the
// JSON round trip a checkpoint journal puts it through.
func TestLatencyTailMatchesHist(t *testing.T) {
	var h LatHist
	x := uint64(7)
	for i := 0; i < 3000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h.Add(sim.Duration(x % 10_000_000))
	}
	tail := h.Tail()
	if tail.P50 != h.Percentile(50) || tail.P999 != h.Percentile(99.9) {
		t.Fatalf("Tail %+v disagrees with Percentile", tail)
	}
	if tail.P50 > tail.P95 || tail.P95 > tail.P99 || tail.P99 > tail.P999 {
		t.Fatalf("tail not monotone: %+v", tail)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back LatHist
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Tail() != tail || back.Count() != h.Count() {
		t.Fatalf("round trip: tail %+v count %d, want %+v %d", back.Tail(), back.Count(), tail, h.Count())
	}
}

// TestLatHistWideBucketInterp is a regression test for interpolation in
// the widest buckets, where bucket width times position overflowed
// int64 and percentiles ran backwards. Every percentile must be
// monotone and lie within [lo of the lowest bucket, Max()].
func TestLatHistWideBucketInterp(t *testing.T) {
	for _, top := range []int64{math.MaxInt64, 1 << 62, 3 << 60} {
		var h LatHist
		for i := int64(0); i < 100; i++ {
			h.Add(sim.Duration(top - i))
		}
		lo, _ := latBounds(latIndex(top - 99))
		prev := sim.Duration(lo)
		for p := 0.0; p <= 100; p += 0.5 {
			v := h.Percentile(p)
			if v < prev || v > h.Max() {
				t.Fatalf("top %d: p%v=%d outside [%d, max %d] or below the previous percentile", top, p, v, prev, h.Max())
			}
			prev = v
		}
	}
}

// TestLatHistJSONCanonical checks that the encoding lists only
// non-empty buckets, in index order, whatever counts grew to, and that
// a decode re-encodes byte for byte.
func TestLatHistJSONCanonical(t *testing.T) {
	var h LatHist
	for _, v := range []sim.Duration{3, 40, 3, 70} {
		h.Add(v)
	}
	if len(h.counts) <= latIndex(70)+1 {
		t.Fatalf("counts has %d buckets; the test needs trailing empty ones", len(h.counts))
	}
	b, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"max":70,"buckets":[[3,2],[40,1],[67,1]]}`
	if string(b) != want {
		t.Fatalf("marshal = %s, want %s", b, want)
	}
	var back LatHist
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(back)
	if !bytes.Equal(b, b2) {
		t.Fatalf("re-encode differs: %s vs %s", b2, b)
	}
}

// TestLatHistJSONRejects lists inputs MarshalJSON cannot have written;
// decoding each must fail and leave the histogram untouched.
func TestLatHistJSONRejects(t *testing.T) {
	for _, in := range []string{
		`{"max":5,"buckets":[[1888,1]]}`,                      // index past latIndex(MaxInt64)
		`{"max":5,"buckets":[[-1,1]]}`,                        // negative index
		`{"max":5,"buckets":[[5,1],[3,1]]}`,                   // descending
		`{"max":5,"buckets":[[5,1],[5,1]]}`,                   // repeated
		`{"max":5,"buckets":[[5,0]]}`,                         // zero count
		`{"max":5,"buckets":[[5,-2]]}`,                        // negative count
		`{"max":5,"buckets":[[3,9223372036854775807],[5,1]]}`, // total overflows
		`{"max":-1,"buckets":[[0,1]]}`,                        // negative max
		`{"max":7,"buckets":[[5,1]]}`,                         // max above the top bucket
		`{"max":4,"buckets":[[5,1]]}`,                         // max below the top bucket
		`{"max":4}`,                                           // max without samples
		`{"max":5,"buckets":[[5]]}`,                           // no count
		`{"max":5.5,"buckets":[[5,1]]}`,                       // not an integer
		`[]`,
	} {
		var h LatHist
		h.Add(9)
		if err := json.Unmarshal([]byte(in), &h); err == nil {
			t.Errorf("%s: decoded without error", in)
		}
		if h.Count() != 1 || h.Max() != 9 {
			t.Errorf("%s: failed decode changed the histogram", in)
		}
	}
}

// FuzzLatHistJSON feeds arbitrary bytes to UnmarshalJSON. Decoding must
// never panic; an accepted input must reach a Marshal→Unmarshal→Marshal
// fixpoint whose decodes agree on Count, Max and every percentile. A
// seed built by Add must round-trip byte for byte.
func FuzzLatHistJSON(f *testing.F) {
	for _, samples := range [][]sim.Duration{
		nil,
		{0},
		{3, 3, 70, 1_000_000},
		{math.MaxInt64, math.MaxInt64 - 1, 1 << 62},
	} {
		var h LatHist
		for _, d := range samples {
			h.Add(d)
		}
		b, err := json.Marshal(h)
		if err != nil {
			f.Fatal(err)
		}
		var back LatHist
		if err := json.Unmarshal(b, &back); err != nil {
			f.Fatal(err)
		}
		if b2, _ := json.Marshal(back); !bytes.Equal(b, b2) {
			f.Fatalf("seed %s re-encodes as %s", b, b2)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"max":5,"buckets":[[1887,1]]}`))
	f.Add([]byte(`{"max":9223372036854775807,"buckets":[[1887,9223372036854775807]]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var a LatHist
		if err := json.Unmarshal(data, &a); err != nil {
			return
		}
		b1, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		var c LatHist
		if err := json.Unmarshal(b1, &c); err != nil {
			t.Fatalf("re-decode of %s: %v", b1, err)
		}
		b2, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("no fixpoint: %s then %s", b1, b2)
		}
		if a.Count() != c.Count() || a.Max() != c.Max() {
			t.Fatalf("decodes disagree: count %d/%d max %d/%d", a.Count(), c.Count(), a.Max(), c.Max())
		}
		for _, p := range []float64{0, 50, 99, 99.9, 100} {
			if a.Percentile(p) != c.Percentile(p) {
				t.Fatalf("p%v: %d vs %d", p, a.Percentile(p), c.Percentile(p))
			}
		}
		if a.Count() > 0 && (a.Percentile(0) > a.Percentile(100) || a.Percentile(100) > a.Max()) {
			t.Fatalf("percentiles out of order or above max %d: p0=%d p100=%d", a.Max(), a.Percentile(0), a.Percentile(100))
		}
	})
}

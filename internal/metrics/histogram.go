package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sim"
)

// LatHist is a log-bucketed latency histogram in the HDR style: each
// power-of-two octave of nanoseconds is split into 2^latSubBits linear
// sub-buckets, so recording is O(1), memory is a few KiB regardless of
// sample count, and any percentile is exact to within one bucket —
// a bounded relative error of 2^-latSubBits (3.125%). It is pure Go and
// deterministic: the same multiset of samples always yields the same
// buckets and the same percentile answers, which the canonical result
// encoding relies on. Add allocates whenever a sample lands in a new
// highest octave past the buckets allocated so far; counts grows
// geometrically, so that happens a few times per histogram. No raw
// samples are kept, so memory stays bounded over any run length.
//
// Percentile scans the buckets, so each query costs O(buckets). A caller
// that asks for the same percentile after every few samples should use
// PctlHist, which answers in amortised O(1).
//
// The zero value is ready to use.
type LatHist struct {
	counts []int64
	n      int64
	max    sim.Duration
}

// latSubBits sets the sub-bucket resolution: 2^latSubBits linear
// sub-buckets per power-of-two octave. 5 bits = 32 sub-buckets, bounding
// the relative quantisation error of any percentile at 1/32.
const latSubBits = 5

const latSubCount = 1 << latSubBits

// latIndex maps a non-negative nanosecond value to its bucket index.
// Values below latSubCount get exact unit buckets; above, the value's
// octave [2^e, 2^(e+1)) is split into latSubCount equal sub-buckets.
func latIndex(v int64) int {
	if v < latSubCount {
		return int(v)
	}
	e := 63 - bits.LeadingZeros64(uint64(v))
	sub := int(v>>uint(e-latSubBits)) & (latSubCount - 1)
	return (e-latSubBits+1)*latSubCount + sub
}

// latBounds returns bucket i's value range [lo, hi) — the inverse of
// latIndex.
func latBounds(i int) (lo, hi int64) {
	if i < latSubCount {
		return int64(i), int64(i) + 1
	}
	b := i/latSubCount - 1 // octave shift: bucket width is 1<<b
	sub := int64(i % latSubCount)
	lo = (latSubCount + sub) << uint(b)
	return lo, lo + 1<<uint(b)
}

// Add records one latency sample. Negative samples clamp to zero.
func (h *LatHist) Add(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	i := latIndex(int64(d))
	if i >= len(h.counts) {
		// Grow geometrically: every new-max sample would otherwise copy
		// the whole array. Trailing zero buckets are invisible — every
		// consumer skips empty buckets — so the extra length is free.
		n := 2 * len(h.counts)
		if n < i+1 {
			n = i + 1
		}
		grown := make([]int64, n)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	h.n++
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of recorded samples.
func (h *LatHist) Count() int64 { return h.n }

// Max returns the largest recorded sample (0 if empty).
func (h *LatHist) Max() sim.Duration { return h.max }

// Merge adds other's samples into h.
func (h *LatHist) Merge(other *LatHist) {
	if other == nil {
		return
	}
	if len(other.counts) > len(h.counts) {
		grown := make([]int64, len(other.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.n += other.n
	if other.max > h.max {
		h.max = other.max
	}
}

// Percentile returns the p-th percentile (p in [0,100]); 0 if empty.
// It reads the sample at sorted index int(p/100*(n-1)), the rank an
// exact sorted-slice percentile reads, interpolating linearly within
// the bucket holding that rank, so the answer is exact within one
// bucket (relative error at most 2^-latSubBits for values above
// 2^latSubBits, exact below).
func (h *LatHist) Percentile(p float64) sim.Duration {
	if h.n == 0 {
		return 0
	}
	rank := h.rank(p)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c > rank {
			return h.interp(i, rank-cum)
		}
		cum += c
	}
	return h.max
}

// rank returns the sorted sample index Percentile(p) reads; h must not
// be empty.
func (h *LatHist) rank(p float64) int64 {
	rank := int64(p / 100 * float64(h.n-1))
	if rank < 0 {
		rank = 0
	}
	if rank >= h.n {
		rank = h.n - 1
	}
	return rank
}

// interp returns the value at 0-based position pos among bucket i's
// samples (pos < counts[i]): linear within the bucket, capped at the
// largest sample.
func (h *LatHist) interp(i int, pos int64) sim.Duration {
	lo, hi := latBounds(i)
	if hi-lo <= 1 {
		return sim.Duration(lo)
	}
	// Integer math keeps the result platform-stable. The product is
	// taken in 128 bits: a wide bucket's width times pos overflows
	// int64. The quotient is below the width, so it fits in 64 bits.
	w := uint64(hi - lo) // wraps to the true width when hi overflows
	phi, plo := bits.Mul64(w, uint64(pos))
	q, _ := bits.Div64(phi, plo, uint64(h.counts[i]))
	v := sim.Duration(lo + int64(q))
	if v > h.max {
		return h.max
	}
	return v
}

// PctlHist is a LatHist that answers one fixed percentile in amortised
// O(1) for latency streams. It keeps a cursor on the bucket holding the
// percentile's rank, with below = the number of samples in buckets
// before the cursor. A sample that lands before the cursor bumps below,
// and Value walks the cursor forward or back until
// below <= rank < below+counts[i]. The rank only grows with the sample
// count, and new samples cluster where earlier ones fell, so a walk is
// usually a step or two and never longer than Percentile's scan. Value
// returns exactly what Hist().Percentile(p) would.
//
// The histogram is held privately, not embedded: an exposed Add or Merge
// would change counts behind the cursor.
type PctlHist struct {
	h     LatHist
	p     float64
	i     int   // cursor bucket
	below int64 // samples in buckets before i
}

// NewPctlHist returns an empty histogram that tracks percentile p (in
// [0,100], clamped as Percentile clamps it).
func NewPctlHist(p float64) PctlHist { return PctlHist{p: p} }

// Add records one latency sample. Negative samples clamp to zero.
func (q *PctlHist) Add(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	if latIndex(int64(d)) < q.i {
		q.below++
	}
	q.h.Add(d)
}

// Count returns the number of recorded samples.
func (q *PctlHist) Count() int64 { return q.h.n }

// Hist returns the underlying histogram. It is read-only: adding to or
// merging into it would desynchronise the cursor.
func (q *PctlHist) Hist() *LatHist { return &q.h }

// Value returns the tracked percentile; 0 if empty.
func (q *PctlHist) Value() sim.Duration {
	h := &q.h
	if h.n == 0 {
		return 0
	}
	rank := h.rank(q.p)
	for q.below+h.counts[q.i] <= rank {
		q.below += h.counts[q.i]
		q.i++
	}
	for q.below > rank {
		q.i--
		q.below -= h.counts[q.i]
	}
	return h.interp(q.i, rank-q.below)
}

// Tail summarises the percentiles the experiment outputs report.
func (h *LatHist) Tail() TailSummary {
	return TailSummary{
		P50:  h.Percentile(50),
		P95:  h.Percentile(95),
		P99:  h.Percentile(99),
		P999: h.Percentile(99.9),
	}
}

// Buckets calls fn for every non-empty bucket in value order with the
// bucket's range and count (for exporters and report renderers).
func (h *LatHist) Buckets(fn func(lo, hi int64, count int64)) {
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := latBounds(i)
		fn(lo, hi, c)
	}
}

// TailSummary carries the tail percentiles of one latency distribution
// in virtual nanoseconds, as the experiment tables and the obs
// run_summary report them.
type TailSummary struct {
	P50  sim.Duration `json:"p50_ns"`
	P95  sim.Duration `json:"p95_ns"`
	P99  sim.Duration `json:"p99_ns"`
	P999 sim.Duration `json:"p999_ns"`
}

// MarshalJSON encodes the histogram in its one canonical form: the
// largest sample and every non-empty bucket as an [index, count] pair in
// ascending index order, e.g. {"max":70,"buckets":[[3,2],[67,1]]}.
// Empty buckets never appear, however far counts has grown. An empty
// histogram encodes as {}.
func (h LatHist) MarshalJSON() ([]byte, error) {
	if h.n == 0 {
		return []byte("{}"), nil
	}
	w := latHistWire{Max: int64(h.max)}
	for i, c := range h.counts {
		if c != 0 {
			w.Buckets = append(w.Buckets, [2]int64{int64(i), c})
		}
	}
	return json.Marshal(w)
}

type latHistWire struct {
	Max     int64      `json:"max"`
	Buckets [][2]int64 `json:"buckets"`
}

// UnmarshalJSON restores a histogram written by MarshalJSON. Its input
// may come from a file (a checkpoint journal), so it rejects what
// MarshalJSON cannot have written: a bucket index past that of
// math.MaxInt64 (it sizes an allocation), indices not strictly
// ascending, a count below 1 or a total that overflows, and a max that
// is negative or outside the top bucket. On error h is unchanged.
func (h *LatHist) UnmarshalJSON(data []byte) error {
	var w latHistWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	top, n := -1, int64(0)
	for _, b := range w.Buckets {
		i, c := b[0], b[1]
		if i <= int64(top) || i > int64(latIndex(math.MaxInt64)) || c <= 0 || n > math.MaxInt64-c {
			return fmt.Errorf("metrics: latency histogram bucket [%d,%d] out of order or range", i, c)
		}
		top, n = int(i), n+c
	}
	if w.Max < 0 || (top >= 0 || w.Max != 0) && latIndex(w.Max) != top {
		return fmt.Errorf("metrics: latency histogram max %d outside its top bucket", w.Max)
	}
	counts := make([]int64, top+1)
	for _, b := range w.Buckets {
		counts[b[0]] = b[1]
	}
	*h = LatHist{counts: counts, n: n, max: sim.Duration(w.Max)}
	return nil
}

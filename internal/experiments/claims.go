package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// The claim matrix: the paper's headline claims as data. Each row names
// the paper section, the preset and workload, the scheduler pair, the
// metric and the band the paper states. EvalClaims runs every row over a
// fixed seed set, so a model change is judged by each claim's pass
// fraction and median rather than by one lucky or unlucky seed.

// ClaimMetric is what a claim row measures, comparing Other with Base.
type ClaimMetric int

const (
	// Speedup is Base's mean runtime over Other's, minus 1.
	Speedup ClaimMetric = iota
	// EnergySaving is Base's mean energy over Other's, minus 1.
	EnergySaving
	// UnderloadRatio is Other's mean underload over Base's.
	UnderloadRatio
	// Underload is Base's mean underload; Other is not run.
	Underload
	// SpeedupGap is the Speedup on Machine minus the Speedup on Alt.
	SpeedupGap
)

func (m ClaimMetric) String() string {
	return [...]string{"speedup", "energy saving", "underload ratio", "underload", "speedup gap"}[m]
}

// Band is the interval a claim's value must lie in. Strict excludes the
// ends (the paper's "beats" and "stays below"); otherwise they count.
type Band struct {
	Lo, Hi float64
	Strict bool
}

// Contains reports whether v lies in the band. NaN never does.
func (b Band) Contains(v float64) bool {
	if b.Strict {
		return v > b.Lo && v < b.Hi
	}
	return v >= b.Lo && v <= b.Hi
}

func (b Band) String() string {
	lo, hi := "[", "]"
	if b.Strict {
		lo, hi = "(", ")"
	}
	f := func(v float64) string {
		if math.IsInf(v, 0) {
			if v < 0 {
				return "-inf"
			}
			return "+inf"
		}
		return fmt.Sprintf("%+.2f", v)
	}
	return lo + f(b.Lo) + ", " + f(b.Hi) + hi
}

// Claim is one row of the matrix.
type Claim struct {
	ID       string // stable short name
	Section  string // paper section
	Machine  string // preset
	Alt      string // second preset, SpeedupGap only
	Workload string
	Scale    float64
	Base     string // "sched/governor", the reference configuration
	Other    string // "sched/governor", the configuration the claim is about
	Metric   ClaimMetric
	Band     Band
}

// Claims returns the matrix rows, one per assert of the shape tests.
func Claims() []Claim {
	inf := math.Inf(1)
	const (
		cfsSched  = "cfs/schedutil"
		cfsPerf   = "cfs/performance"
		nestSched = "nest/schedutil"
		nestPerf  = "nest/performance"
	)
	llvm := func(id, other, base string, m ClaimMetric, b Band) Claim {
		return Claim{ID: id, Section: "5.2", Machine: "5218", Workload: "configure/llvm_ninja",
			Scale: 0.04, Base: base, Other: other, Metric: m, Band: b}
	}
	on := func(id, sec, mach, wl string, scale float64, other, base string, b Band) Claim {
		return Claim{ID: id, Section: sec, Machine: mach, Workload: wl, Scale: scale,
			Base: base, Other: other, Metric: Speedup, Band: b}
	}
	rows := []Claim{
		llvm("configure-nest", nestSched, cfsSched, Speedup, Band{Lo: 0.10, Hi: 1.0}),
		llvm("configure-nest-vs-perf", nestSched, cfsPerf, Speedup, Band{Lo: 0, Hi: inf, Strict: true}),
		llvm("configure-nest-vs-smove", nestSched, "smove/schedutil", Speedup, Band{Lo: 0, Hi: inf, Strict: true}),
		llvm("configure-cfs-underload", "", cfsSched, Underload, Band{Lo: 0.3, Hi: inf}),
		llvm("configure-underload", nestSched, cfsSched, UnderloadRatio, Band{Lo: 0, Hi: 0.2}),
		{ID: "configure-energy", Section: "5.2", Machine: "5218", Workload: "configure/erlang", Scale: 0.04,
			Base: cfsSched, Other: nestSched, Metric: EnergySaving, Band: Band{Lo: 0.05, Hi: inf}},
		on("e7-nestperf-vs-perf", "5.2", "e7-8870", "configure/mplayer", 0.04, nestPerf, cfsPerf, Band{Lo: 0, Hi: inf, Strict: true}),
		on("e7-perf", "5.2", "e7-8870", "configure/mplayer", 0.04, cfsPerf, cfsSched, Band{Lo: 0.10, Hi: inf}),
		llvm("reserve-ablation", "nest:noreserve/schedutil", nestSched, Speedup, Band{Lo: -inf, Hi: -0.04}),
		llvm("compact-ablation", "nest:nocompact/schedutil", nestSched, Speedup, Band{Lo: -0.05, Hi: 0.05}),
		llvm("attach-ablation", "nest:noattach/schedutil", nestSched, Speedup, Band{Lo: -0.05, Hi: 0.05}),
		{ID: "socket-count", Section: "5.2", Machine: "6130-2", Alt: "6130-4", Workload: "configure/gcc", Scale: 0.04,
			Base: cfsSched, Other: nestSched, Metric: SpeedupGap, Band: Band{Lo: -0.05, Hi: 0.05}},
		on("h2", "5.3", "6130-2", "dacapo/h2", 0.04, nestSched, cfsSched, Band{Lo: 0.10, Hi: inf}),
		on("fop", "5.3", "6130-2", "dacapo/fop", 0.04, nestSched, cfsSched, Band{Lo: -0.07, Hi: 0.10}),
		on("h2-spin-ablation", "5.3", "6130-2", "dacapo/h2", 0.04, "nest:nospin/schedutil", nestSched, Band{Lo: -inf, Hi: -0.05}),
	}
	for _, wl := range []string{"nas/lu.C", "nas/cg.C", "nas/ep.C"} {
		rows = append(rows, on(shortName(wl), "5.4", "5218", wl, 0.06, nestSched, cfsSched, Band{Lo: -0.05, Hi: 0.05}))
	}
	zstd, rodinia := "phoronix/zstd-compression-7", "phoronix/rodinia-5"
	return append(rows,
		on("zstd-nest", "5.5", "6130-2", zstd, 0.04, nestSched, cfsSched, Band{Lo: 0.08, Hi: inf}),
		on("zstd-perf", "5.5", "6130-2", zstd, 0.04, cfsPerf, cfsSched, Band{Lo: 0.08, Hi: inf}),
		on("rodinia-nest", "5.5", "6130-2", rodinia, 0.04, nestSched, cfsSched, Band{Lo: 0.02, Hi: inf}),
		on("rodinia-nest-vs-perf", "5.5", "6130-2", rodinia, 0.04, nestSched, cfsPerf, Band{Lo: 0, Hi: inf, Strict: true}),
	)
}

// ClaimSeeds is the matrix's fixed seed set: odd seeds 1-39, each the
// first of ClaimRepeats consecutive seeds (the shape tests' rule).
func ClaimSeeds() []uint64 {
	s := make([]uint64, 20)
	for i := range s {
		s[i] = uint64(2*i + 1)
	}
	return s
}

// ClaimRepeats is the number of repeats averaged per cell and seed.
const ClaimRepeats = 2

// ClaimResult is one row evaluated over a seed set.
type ClaimResult struct {
	Claim
	Values []float64 // one per seed, in seed order
	Pass   int       // values inside the band
	Median float64
}

// claimCell identifies one configuration of one row at one seed.
type claimCell struct {
	machine, conf, workload string
	scale                   float64
	seed                    uint64
}

// cells lists the configurations the claim needs at one seed.
func (c Claim) cells(seed uint64) []claimCell {
	at := func(mach, conf string) claimCell {
		return claimCell{mach, conf, c.Workload, c.Scale, seed}
	}
	switch c.Metric {
	case Underload:
		return []claimCell{at(c.Machine, c.Base)}
	case SpeedupGap:
		return []claimCell{at(c.Machine, c.Base), at(c.Machine, c.Other), at(c.Alt, c.Base), at(c.Alt, c.Other)}
	}
	return []claimCell{at(c.Machine, c.Base), at(c.Machine, c.Other)}
}

// value computes the claim's metric at one seed from its cells' repeats,
// in the order cells lists them.
func (c Claim) value(rs [][]*metrics.Result) float64 {
	run := func(i int) float64 { return metrics.Mean(metrics.Runtimes(rs[i])) }
	under := func(i int) float64 {
		var s float64
		for _, r := range rs[i] {
			s += r.UnderloadAvg
		}
		return s / float64(len(rs[i]))
	}
	switch c.Metric {
	case EnergySaving:
		return metrics.Speedup(metrics.Mean(metrics.Energies(rs[0])), metrics.Mean(metrics.Energies(rs[1])))
	case UnderloadRatio:
		return under(1) / under(0)
	case Underload:
		return under(0)
	case SpeedupGap:
		return metrics.Speedup(run(0), run(1)) - metrics.Speedup(run(2), run(3))
	}
	return metrics.Speedup(run(0), run(1))
}

// EvalClaims runs every configuration the claims need, each at every
// seed with ClaimRepeats repeats, through one grid, and evaluates each
// row. A configuration shared by several rows runs once per seed.
func EvalClaims(claims []Claim, seeds []uint64, opts PoolOptions) ([]ClaimResult, error) {
	index := map[claimCell]int{}
	var specs []RunSpec
	for _, c := range claims {
		for _, seed := range seeds {
			for _, k := range c.cells(seed) {
				if _, ok := index[k]; ok {
					continue
				}
				index[k] = len(specs)
				sched, gov, _ := strings.Cut(k.conf, "/")
				specs = append(specs, RepeatSpecs(RunSpec{Machine: k.machine, Scheduler: sched, Governor: gov,
					Workload: k.workload, Scale: k.scale, Seed: k.seed}, ClaimRepeats)...)
			}
		}
	}
	res, err := RunGrid(specs, opts)
	if err != nil {
		return nil, err
	}
	out := make([]ClaimResult, len(claims))
	for i, c := range claims {
		cr := ClaimResult{Claim: c, Values: make([]float64, len(seeds))}
		for j, seed := range seeds {
			ks := c.cells(seed)
			rs := make([][]*metrics.Result, len(ks))
			for n, k := range ks {
				first := index[k]
				rs[n] = res[first : first+ClaimRepeats]
			}
			v := c.value(rs)
			cr.Values[j] = v
			if c.Band.Contains(v) {
				cr.Pass++
			}
		}
		cr.Median = median(cr.Values)
		out[i] = cr
	}
	return out, nil
}

// median returns the middle value (the mean of the two middle values
// for an even count). NaN sorts first.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// claimsExp prints the matrix over ClaimSeeds. The seeds, repeats,
// presets and scales are the matrix's own: only the pool options apply.
func claimsExp(opt Options) (*Report, error) {
	claims := Claims()
	seeds := ClaimSeeds()
	rows, err := EvalClaims(claims, seeds, opt.pool())
	if err != nil {
		return nil, err
	}
	sec := Section{
		Heading: fmt.Sprintf("odd seeds 1-%d, %d repeats each", seeds[len(seeds)-1], ClaimRepeats),
		Columns: []string{"claim", "§", "machine", "workload", "other vs base", "metric", "band", "pass", "median"},
	}
	for _, r := range rows {
		mach := r.Machine
		if r.Alt != "" {
			mach += "," + r.Alt
		}
		pair := r.Other + " vs " + r.Base
		if r.Metric == Underload {
			pair = r.Base
		}
		sec.Rows = append(sec.Rows, []string{r.ID, r.Section, mach, shortName(r.Workload), pair,
			r.Metric.String(), r.Band.String(), fmt.Sprintf("%d/%d", r.Pass, len(seeds)), fmt.Sprintf("%+.4f", r.Median)})
	}
	return &Report{ID: "claims", Title: "Claim matrix: the paper's headline claims over 20 seeds", Sections: []Section{sec}}, nil
}

func init() {
	registerExperiment(&Experiment{ID: "claims", Title: "Claim matrix: the paper's headline claims over 20 seeds", Run: claimsExp})
}

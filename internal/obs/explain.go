package obs

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/ordered"
	"repro/internal/sim"
)

// Explain aggregates a run's event stream into the ASCII summary behind
// cmd/nestsim -explain: the placement-path breakdown (which heuristic
// placed how many tasks), a scan-cost histogram (cores examined per
// decision), and the nest size over time. Single-goroutine, like the
// simulation that feeds it.
type Explain struct {
	paths      map[string]int // "<sched>.<path>" → decisions
	scan       [8]int         // scan-cost buckets (see scanBucket)
	placements int

	nestSizes  []nestPoint
	expands    int
	compacts   int
	trips      int
	migrations int
	balances   int
	end        sim.Time
}

type nestPoint struct {
	t                sim.Time
	primary, reserve int
}

// NewExplain returns an empty aggregator.
func NewExplain() *Explain {
	return &Explain{paths: make(map[string]int)}
}

// Record implements Recorder.
func (x *Explain) Record(ev Event) {
	switch e := ev.(type) {
	case PlacementDecision:
		x.paths[e.Sched+"."+e.Path]++
		x.scan[scanBucket(e.Scanned)]++
		x.placements++
		x.stamp(e.T)
	case NestExpand:
		x.expands++
		x.nestSizes = append(x.nestSizes, nestPoint{e.T, e.Primary, e.Reserve})
		x.stamp(e.T)
	case NestCompact:
		x.compacts++
		x.nestSizes = append(x.nestSizes, nestPoint{e.T, e.Primary, e.Reserve})
		x.stamp(e.T)
	case ImpatienceTrip:
		x.trips++
		x.stamp(e.T)
	case Migration:
		x.migrations++
		x.stamp(e.T)
	case TickBalance:
		x.balances++
		x.stamp(e.T)
	case FreqGrant:
		x.stamp(e.T)
	case GovernorRequest:
		x.stamp(e.T)
	case *NestGauge:
		// Periodic samples fill the gaps between expand/compact events,
		// so a sampled run gets a denser nest-size sparkline.
		x.nestSizes = append(x.nestSizes, nestPoint{e.T, e.Primary, e.Reserve})
		x.stamp(e.T)
	case *CoreGauge:
		x.stamp(e.T)
	case *SocketGauge:
		x.stamp(e.T)
	case *UnderloadGauge:
		x.stamp(e.T)
	}
}

func (x *Explain) stamp(t sim.Time) {
	if t > x.end {
		x.end = t
	}
}

// scanBucket maps a cores-examined count to its histogram bucket.
func scanBucket(n int) int {
	switch {
	case n <= 0:
		return 0
	case n == 1:
		return 1
	case n <= 3:
		return 2
	case n <= 7:
		return 3
	case n <= 15:
		return 4
	case n <= 31:
		return 5
	case n <= 63:
		return 6
	}
	return 7
}

var scanLabels = [8]string{"0", "1", "2-3", "4-7", "8-15", "16-31", "32-63", "64+"}

// WriteTo renders the summary. The error is always nil; the signature
// exists for io.WriterTo-style call sites.
func (x *Explain) WriteTo(w io.Writer) (int64, error) {
	var n int64
	p := func(format string, args ...any) {
		c, _ := fmt.Fprintf(w, format, args...)
		n += int64(c)
	}

	p("placement paths (%d decisions; layered policies report each layer):\n", x.placements)
	type row struct {
		name  string
		count int
	}
	rows := make([]row, 0, len(x.paths))
	for _, name := range ordered.Keys(x.paths) {
		rows = append(rows, row{name, x.paths[name]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].count != rows[j].count {
			return rows[i].count > rows[j].count
		}
		return rows[i].name < rows[j].name
	})
	max := 1
	for _, r := range rows {
		if r.count > max {
			max = r.count
		}
	}
	for _, r := range rows {
		p("  %-24s %7d  %5.1f%%  %s\n", r.name, r.count,
			100*float64(r.count)/float64(maxInt(x.placements, 1)), bar(r.count, max, 24))
	}

	p("scan cost (cores examined per placement decision):\n")
	maxS := 1
	for _, c := range x.scan {
		if c > maxS {
			maxS = c
		}
	}
	for i, c := range x.scan {
		if c == 0 {
			continue
		}
		p("  %-6s %7d  %s\n", scanLabels[i], c, bar(c, maxS, 32))
	}

	if len(x.nestSizes) > 0 {
		p("nest size over time (%d expand, %d compact, %d impatience trips):\n",
			x.expands, x.compacts, x.trips)
		p("  primary  %s\n", x.sizeSeries(func(np nestPoint) int { return np.primary }))
		p("  reserve  %s\n", x.sizeSeries(func(np nestPoint) int { return np.reserve }))
	}

	p("runtime: %d migrations, %d balance pulls\n", x.migrations, x.balances)
	return n, nil
}

// sizeSeries renders one nest-size dimension as a carry-forward ASCII
// sparkline over the run, annotated with its peak.
func (x *Explain) sizeSeries(get func(nestPoint) int) string {
	const cols = 60
	levels := []byte(" .:-=+*#%@")
	peak := 0
	for _, np := range x.nestSizes {
		if v := get(np); v > peak {
			peak = v
		}
	}
	if peak == 0 || x.end == 0 {
		return "max 0"
	}
	// Max size per column, carrying the last value across empty columns.
	vals := make([]int, cols)
	for i := range vals {
		vals[i] = -1
	}
	for _, np := range x.nestSizes {
		col := int(int64(np.t) * int64(cols) / int64(x.end+1))
		if col >= cols {
			col = cols - 1
		}
		if v := get(np); v > vals[col] {
			vals[col] = v
		}
	}
	out := make([]byte, cols)
	last := 0
	for i, v := range vals {
		if v < 0 {
			v = last
		}
		last = v
		idx := v * (len(levels) - 1) / peak
		out[i] = levels[idx]
	}
	return fmt.Sprintf("max %-3d |%s| %s", peak, out, x.end)
}

// bar renders a proportional ASCII bar of at most width characters.
func bar(v, max, width int) string {
	if max <= 0 {
		return ""
	}
	n := v * width / max
	if n == 0 && v > 0 {
		n = 1
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

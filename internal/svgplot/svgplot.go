// Package svgplot renders the paper's figures as standalone SVG files
// using only the standard library: execution-trace heatmaps (Figures 2,
// 8, 9), underload series (Figure 3), grouped speedup bars (Figures 5,
// 10, 12) and machine time series.
package svgplot

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/machine"
	"repro/internal/obs"
)

// bucket colours, low frequency (cold blue) to high (hot red), matching
// the intuition of the paper's colour maps.
var bucketColors = []string{
	"#3b4cc0", "#6788ee", "#9abbff", "#c9d7f0",
	"#edd1c2", "#f7a889", "#e26952", "#b40426",
}

func bucketColor(i, n int) string {
	if n <= 0 {
		return "#888888"
	}
	idx := i * len(bucketColors) / n
	if idx >= len(bucketColors) {
		idx = len(bucketColors) - 1
	}
	return bucketColors[idx]
}

func header(w io.Writer, width, height int, title string) {
	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(w, `<text x="%d" y="18" font-family="sans-serif" font-size="14" font-weight="bold">%s</text>`+"\n",
		10, escape(title))
}

func footer(w io.Writer) { fmt.Fprintln(w, "</svg>") }

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// Heatmap renders a core/time execution trace: one row per used core,
// one cell per tick, coloured by frequency bucket.
func Heatmap(w io.Writer, title string, tr *obs.Trace, edges []machine.FreqMHz) {
	cores := tr.CoresUsed()
	ticks := tr.Ticks()
	if len(cores) == 0 || ticks == 0 {
		header(w, 400, 60, title+" (empty trace)")
		footer(w)
		return
	}
	const (
		left   = 70
		top    = 30
		cellW  = 6
		cellH  = 10
		legend = 40
	)
	width := left + ticks*cellW + 20
	height := top + len(cores)*cellH + legend + 20

	index := make(map[machine.CoreID]int, len(cores))
	for i, c := range cores {
		// Highest core number on top, as in the paper.
		index[c] = len(cores) - 1 - i
	}
	bucket := func(f machine.FreqMHz) int {
		for i, e := range edges {
			if f <= e {
				return i
			}
		}
		return len(edges) - 1
	}

	header(w, width, height, title)
	for i, c := range cores {
		y := top + (len(cores)-1-i)*cellH
		fmt.Fprintf(w, `<text x="4" y="%d" font-family="monospace" font-size="8">core %d</text>`+"\n", y+cellH-2, c)
	}
	for _, p := range tr.Points {
		row, ok := index[machine.CoreID(p.Core)]
		if !ok || int(p.Tick) >= ticks {
			continue
		}
		x := left + int(p.Tick)*cellW
		y := top + row*cellH
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>`+"\n",
			x, y, cellW, cellH-1, bucketColor(bucket(p.Freq), len(edges)))
	}
	// Legend.
	ly := top + len(cores)*cellH + 14
	lx := left
	for i, e := range edges {
		lo := machine.FreqMHz(0)
		if i > 0 {
			lo = edges[i-1]
		}
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n", lx, ly, bucketColor(i, len(edges)))
		label := fmt.Sprintf("(%.1f,%.1f]", lo.GHz(), e.GHz())
		fmt.Fprintf(w, `<text x="%d" y="%d" font-family="monospace" font-size="8">%s</text>`+"\n", lx+12, ly+9, label)
		lx += 12 + 7*len(label)
	}
	fmt.Fprintf(w, `<text x="%d" y="%d" font-family="monospace" font-size="9">%v → %v, %d ticks of 4ms</text>`+"\n",
		left, height-6, tr.Start, tr.End, ticks)
	footer(w)
}

// UnderloadSeries renders Figure 3's per-tick underload as a bar series.
func UnderloadSeries(w io.Writer, title string, series []int) {
	const (
		left = 40
		top  = 30
		barW = 3
		hMax = 120
	)
	peak := 1
	for _, v := range series {
		if v > peak {
			peak = v
		}
	}
	width := left + len(series)*barW + 20
	height := top + hMax + 30
	header(w, width, height, title)
	// Axis.
	fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", left, top+hMax, left+len(series)*barW, top+hMax)
	fmt.Fprintf(w, `<text x="4" y="%d" font-family="monospace" font-size="9">%d</text>`+"\n", top+8, peak)
	for i, v := range series {
		if v <= 0 {
			continue
		}
		h := v * hMax / peak
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="%d" height="%d" fill="#b40426"/>`+"\n",
			left+i*barW, top+hMax-h, barW-1, h)
	}
	footer(w)
}

// BarGroup is one cluster of bars sharing a label (e.g. one benchmark).
type BarGroup struct {
	Label  string
	Values []float64 // one per series
}

// Bars renders grouped bars (speedups in percent), with a zero line and
// per-series colours — the Figures 5/10/12 layout.
func Bars(w io.Writer, title string, seriesNames []string, groups []BarGroup) {
	const (
		left  = 60
		top   = 40
		barW  = 14
		gap   = 18
		hHalf = 90
	)
	maxAbs := 5.0
	for _, g := range groups {
		for _, v := range g.Values {
			if v > maxAbs {
				maxAbs = v
			}
			if -v > maxAbs {
				maxAbs = -v
			}
		}
	}
	groupW := len(seriesNames)*barW + gap
	width := left + len(groups)*groupW + 20
	height := top + 2*hHalf + 60
	header(w, width, height, title)
	zero := top + hHalf
	fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", left, zero, width-10, zero)
	// ±5%% guide lines, as the paper draws.
	guide := int(5 / maxAbs * hHalf)
	for _, gy := range []int{zero - guide, zero + guide} {
		fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999" stroke-dasharray="4 3"/>`+"\n", left, gy, width-10, gy)
	}
	for gi, g := range groups {
		x0 := left + gi*groupW
		for si, v := range g.Values {
			h := int(v / maxAbs * hHalf)
			x := x0 + si*barW
			col := bucketColor(si*2+1, len(seriesNames)*2)
			if h >= 0 {
				fmt.Fprintf(w, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>`+"\n", x, zero-h, barW-2, h, col)
			} else {
				fmt.Fprintf(w, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>`+"\n", x, zero, barW-2, -h, col)
			}
		}
		fmt.Fprintf(w, `<text x="%d" y="%d" font-family="monospace" font-size="8" transform="rotate(45 %d %d)">%s</text>`+"\n",
			x0, zero+hHalf+12, x0, zero+hHalf+12, escape(g.Label))
	}
	// Legend.
	lx := left
	for si, name := range seriesNames {
		col := bucketColor(si*2+1, len(seriesNames)*2)
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n", lx, 24, col)
		fmt.Fprintf(w, `<text x="%d" y="%d" font-family="monospace" font-size="9">%s</text>`+"\n", lx+13, 33, escape(name))
		lx += 20 + 7*len(name)
	}
	footer(w)
}

// TimeSeries renders the machine-wide view of a core gauge stream, as
// an obs.SeriesBuffer collects it: the busy core count and the mean
// busy frequency at each sample instant, two stacked panels.
func TimeSeries(w io.Writer, title string, cores []obs.CoreGauge, maxMHz float64) {
	const (
		left = 50
		top  = 30
		hPer = 90
		ptW  = 2
	)
	type sample struct {
		busy    int
		meanMHz float64
	}
	// Each instant's gauges are contiguous and in ascending core order.
	var samples []sample
	for i := 0; i < len(cores); {
		var s sample
		var sum float64
		j := i
		for ; j < len(cores) && cores[j].T == cores[i].T; j++ {
			if cores[j].State == "busy" {
				s.busy++
				sum += float64(cores[j].FreqMHz)
			}
		}
		if s.busy > 0 {
			s.meanMHz = sum / float64(s.busy)
		}
		samples = append(samples, s)
		i = j
	}
	n := len(samples)
	if n == 0 {
		header(w, 400, 60, title+" (no samples)")
		footer(w)
		return
	}
	maxBusy := 1
	for _, s := range samples {
		if s.busy > maxBusy {
			maxBusy = s.busy
		}
	}
	width := left + n*ptW + 20
	height := top + 2*hPer + 50
	header(w, width, height, title)

	panel := func(y0 int, label string, get func(sample) float64, max float64, col string) {
		fmt.Fprintf(w, `<text x="4" y="%d" font-family="monospace" font-size="9">%s</text>`+"\n", y0+10, escape(label))
		fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", left, y0+hPer, left+n*ptW, y0+hPer)
		var pts []string
		for i, s := range samples {
			v := get(s)
			y := y0 + hPer - int(v/max*float64(hPer-10))
			pts = append(pts, fmt.Sprintf("%d,%d", left+i*ptW, y))
		}
		fmt.Fprintf(w, `<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>`+"\n", col, strings.Join(pts, " "))
	}
	panel(top, fmt.Sprintf("busy cores (max %d)", maxBusy),
		func(s sample) float64 { return float64(s.busy) }, float64(maxBusy), "#3b4cc0")
	panel(top+hPer+20, fmt.Sprintf("mean busy MHz (max %.0f)", maxMHz),
		func(s sample) float64 { return s.meanMHz }, maxMHz, "#b40426")
	footer(w)
}

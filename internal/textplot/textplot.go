// Package textplot renders the paper's trace figures (2, 3, 8, 9) as
// ASCII: per-core frequency/activity heat rows over time, and underload
// bar series.
package textplot

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/machine"
	"repro/internal/obs"
)

// freqGlyphs maps a frequency bucket index (low to high) to a glyph.
var freqGlyphs = []byte{'.', ':', '-', '=', '+', '*', '#', '@'}

// Glyph returns the glyph for bucket i of n.
func Glyph(i, n int) byte {
	if n <= 0 {
		return '?'
	}
	idx := i * len(freqGlyphs) / n
	if idx >= len(freqGlyphs) {
		idx = len(freqGlyphs) - 1
	}
	return freqGlyphs[idx]
}

// CoreTrace renders one row per used core, one column per tick; busy
// ticks show a glyph encoding the frequency bucket, idle ticks a space.
// It reproduces the layout of the paper's Figures 2, 8 and 9.
func CoreTrace(w io.Writer, tr *obs.Trace, edges []machine.FreqMHz) {
	if tr == nil || len(tr.Points) == 0 {
		fmt.Fprintln(w, "(no trace points)")
		return
	}
	cores := tr.CoresUsed()
	ticks := tr.Ticks()
	index := make(map[machine.CoreID]int, len(cores))
	for i, c := range cores {
		index[c] = i
	}
	grid := make([][]byte, len(cores))
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", ticks))
	}
	bucket := func(f machine.FreqMHz) int {
		for i, e := range edges {
			if f <= e {
				return i
			}
		}
		return len(edges) - 1
	}
	for _, p := range tr.Points {
		row := index[machine.CoreID(p.Core)]
		if int(p.Tick) < ticks {
			grid[row][p.Tick] = Glyph(bucket(p.Freq), len(edges))
		}
	}
	// Highest core number on top, as in the paper's figures.
	for i := len(cores) - 1; i >= 0; i-- {
		fmt.Fprintf(w, "core %3d |%s|\n", cores[i], string(grid[i]))
	}
	fmt.Fprintf(w, "          %s\n", timeAxis(ticks, tr))
	fmt.Fprintf(w, "  glyphs (low→high freq): ")
	for i := range edges {
		lo := machine.FreqMHz(0)
		if i > 0 {
			lo = edges[i-1]
		}
		fmt.Fprintf(w, "%c=(%.1f,%.1f] ", Glyph(i, len(edges)), lo.GHz(), edges[i].GHz())
	}
	fmt.Fprintln(w)
}

func timeAxis(ticks int, tr *obs.Trace) string {
	return fmt.Sprintf("%v → %v (%d ticks of 4ms)", tr.Start, tr.End, ticks)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// UnderloadSeries renders Figure 3's underload-over-time as a column of
// bars, binning the per-tick series into width buckets.
func UnderloadSeries(w io.Writer, label string, series []int, width int) {
	if len(series) == 0 {
		fmt.Fprintf(w, "%s: (empty)\n", label)
		return
	}
	if width <= 0 {
		width = 60
	}
	binSize := (len(series) + width - 1) / width
	fmt.Fprintf(w, "%s (peak per %d-tick bin):\n", label, binSize)
	maxV := 0
	bins := make([]int, 0, width)
	for i := 0; i < len(series); i += binSize {
		peak := 0
		for j := i; j < i+binSize && j < len(series); j++ {
			if series[j] > peak {
				peak = series[j]
			}
		}
		bins = append(bins, peak)
		if peak > maxV {
			maxV = peak
		}
	}
	for level := maxV; level > 0; level-- {
		var b strings.Builder
		for _, v := range bins {
			if v >= level {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		fmt.Fprintf(w, "%2d |%s\n", level, b.String())
	}
	fmt.Fprintf(w, "   +%s\n", strings.Repeat("-", len(bins)))
}

// Bar renders a labelled horizontal percentage bar, for speedup tables.
func Bar(v float64, scale float64, width int) string {
	n := int(v * scale)
	if n < 0 {
		n = -n
		if n > width {
			n = width
		}
		return strings.Repeat("<", n)
	}
	if n > width {
		n = width
	}
	return strings.Repeat(">", n)
}

// Command nestobs analyses JSONL event streams written by nestsim
// -events / -series and experiments -events (see docs/OBSERVABILITY.md)
// without re-running anything: an offline report with a core-warmth
// heatmap, sampled frequency/queue/socket time series, the placement-
// path and scan-cost breakdowns of -explain, counters recomputed from
// the events — and a diff mode that compares two runs (typically nest
// vs cfs at the same seed) counter by counter and percentile by
// percentile.
//
// Usage:
//
//	nestobs report events.jsonl
//	nestobs diff nest.jsonl cfs.jsonl
//	nestobs expand events.jsonl > full.jsonl
//
// Everything is derived from the stream, so a report is reproducible
// from the .jsonl artifact alone: same file, same bytes out. Streams
// leave out core gauges that repeat their core's last line (wire format
// 2); nestobs puts them back with obs.ExpandGauges before it reads a
// stream, and expand writes that full-batch stream to stdout for
// readers outside Go. Execution slices ("ev":"slice") are skipped by
// report and diff: the report has no per-slice view (nestsim
// -chrometrace renders them), and they bump no counter.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"text/tabwriter"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ordered"
	"repro/internal/sim"
)

func main() {
	args := os.Args[1:]
	fail := func(msg string) {
		fmt.Fprintln(os.Stderr, "nestobs:", msg)
		fmt.Fprintln(os.Stderr, "usage: nestobs report <events.jsonl>")
		fmt.Fprintln(os.Stderr, "       nestobs diff <a.jsonl> <b.jsonl>")
		fmt.Fprintln(os.Stderr, "       nestobs expand <events.jsonl>")
		os.Exit(2)
	}
	switch {
	case len(args) == 2 && args[0] == "expand":
		if err := expandFile(os.Stdout, args[1]); err != nil {
			fmt.Fprintln(os.Stderr, "nestobs:", err)
			os.Exit(1)
		}
	case len(args) == 2 && args[0] == "report":
		a, err := loadFile(args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "nestobs:", err)
			os.Exit(1)
		}
		writeReport(os.Stdout, a)
	case len(args) == 3 && args[0] == "diff":
		a, err := loadFile(args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "nestobs:", err)
			os.Exit(1)
		}
		b, err := loadFile(args[2])
		if err != nil {
			fmt.Fprintln(os.Stderr, "nestobs:", err)
			os.Exit(1)
		}
		writeDiff(os.Stdout, args[1], args[2], a, b)
	default:
		fail("expected a subcommand: report, diff or expand")
	}
}

// analysis is everything nestobs derives from one decoded stream.
type analysis struct {
	infos    []obs.RunInfo
	sums     []obs.RunSummary
	events   int
	counters map[string]int64
	explain  *obs.Explain
	coreG    []obs.CoreGauge
	sockG    []obs.SocketGauge
	fans     []obs.Fanout
	end      sim.Time // last gauge timestamp (heatmap/series extent)
	instants int      // distinct gauge sample times
}

// cols picks the heatmap width: one column per sample instant up to the
// cap, so a short run never shows aliasing gaps between samples.
func (a *analysis) cols() int {
	if a.instants < 1 {
		return 1
	}
	if a.instants > heatCols {
		return heatCols
	}
	return a.instants
}

// loadFile decodes one JSONL stream and aggregates it.
func loadFile(path string) (*analysis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return analyze(evs), nil
}

// decode reads a JSONL stream with its skipped core gauges restored and
// its execution slices dropped.
func decode(r io.Reader) ([]obs.Event, error) {
	var evs []obs.Event
	_, err := obs.DecodeStream(r, obs.ExpandGauges(func(ev obs.Event) {
		if _, ok := ev.(*obs.ExecSlice); !ok {
			evs = append(evs, ev)
		}
	}))
	return evs, err
}

// expandFile writes the stream at path to w in full-batch form: every
// decoded event, slices included, one line each, with the core gauges
// the stream left out restored. Lines of kinds this build does not know
// are dropped.
func expandFile(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(w)
	var line []byte
	var werr error
	_, err = obs.DecodeStream(f, obs.ExpandGauges(func(ev obs.Event) {
		if werr != nil {
			return
		}
		if line, werr = obs.AppendJSONL(line[:0], ev); werr == nil {
			_, werr = bw.Write(line)
		}
	}))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// analyze replays decoded events through a fresh hub (recomputing the
// counter registry exactly as the live run did) and an Explain
// aggregator, and collects the gauge samples for the time-series views.
func analyze(evs []obs.Event) *analysis {
	a := &analysis{explain: obs.NewExplain()}
	h := obs.New(a.explain)
	lastT := sim.Time(-1)
	for _, ev := range evs {
		h.Emit(ev)
		switch e := ev.(type) {
		case obs.RunInfo:
			a.infos = append(a.infos, e)
		case obs.RunSummary:
			a.sums = append(a.sums, e)
		case *obs.CoreGauge:
			a.coreG = append(a.coreG, *e)
			if e.T > a.end {
				a.end = e.T
			}
			if e.T != lastT {
				lastT = e.T
				a.instants++
			}
		case *obs.SocketGauge:
			a.sockG = append(a.sockG, *e)
			if e.T > a.end {
				a.end = e.T
			}
		case obs.Fanout:
			a.fans = append(a.fans, e)
		}
	}
	a.events = len(evs)
	a.counters = h.Snapshot()
	return a
}

// label names the stream for headers: the first RunInfo when present,
// the file name otherwise.
func (a *analysis) label(path string) string {
	if len(a.infos) > 0 {
		in := a.infos[0]
		return fmt.Sprintf("%s on %s, %s-%s seed=%d", in.Workload, in.Machine, in.Scheduler, in.Governor, in.Seed)
	}
	return path
}

// ---- report ----------------------------------------------------------

const heatCols = 64

// heatLevels grade a 0..1 share from cold to warm.
var heatLevels = []byte(" .:-=+*#%@")

func writeReport(w io.Writer, a *analysis) {
	for _, in := range a.infos {
		fmt.Fprintf(w, "run: %s on %s, %s-%s (scale %g, seed %d)\n",
			in.Workload, in.Machine, in.Scheduler, in.Governor, in.Scale, in.Seed)
	}
	if len(a.infos) == 0 {
		fmt.Fprintln(w, "run: (no run header in stream)")
	}
	fmt.Fprintf(w, "events: %d\n\n", a.events)

	writeHeatmap(w, a)
	writeSeries(w, a)
	a.explain.WriteTo(w)
	fmt.Fprintln(w)
	writeOverload(w, a)
	writeFanout(w, a)
	writeCounters(w, a.counters)
	for _, s := range a.sums {
		fmt.Fprintf(w, "summary: runtime %v  energy %.1fJ  wake p50/p95/p99/p99.9 %s/%s/%s/%s  (%d wakeups)\n",
			sim.Time(s.RuntimeNS), s.EnergyJ,
			usNS(s.WakeP50), usNS(s.WakeP95), usNS(s.WakeP99), usNS(s.WakeP999), s.Wakeups)
	}
}

// binOf maps a timestamp to its column of cols.
func binOf(t, end sim.Time, cols int) int {
	col := int(int64(t) * int64(cols) / int64(end+1))
	if col >= cols {
		col = cols - 1
	}
	return col
}

// writeHeatmap renders the core-warmth grid: one row per sampled core
// (highest on top, like the paper's trace figures), one column per time
// bin, glyph graded by the share of samples in the bin that found the
// core warm (busy or spinning). Offline samples mark the bin 'x'.
func writeHeatmap(w io.Writer, a *analysis) {
	if len(a.coreG) == 0 {
		fmt.Fprintf(w, "core warmth: no gauge samples in stream (run nestsim with -sample-every or -series)\n\n")
		return
	}
	cols := a.cols()
	type cell struct{ warm, total, off int }
	grid := make(map[int][]cell)
	var cores []int
	for _, g := range a.coreG {
		row, ok := grid[g.Core]
		if !ok {
			row = make([]cell, cols)
			grid[g.Core] = row
			cores = append(cores, g.Core)
		}
		c := &row[binOf(g.T, a.end, cols)]
		c.total++
		switch g.State {
		case "busy", "spin":
			c.warm++
		case "offline":
			c.off++
		}
	}
	sort.Ints(cores)
	fmt.Fprintf(w, "core warmth (busy+spin share per bin; %d samples):\n", len(a.coreG))
	for i := len(cores) - 1; i >= 0; i-- {
		row := grid[cores[i]]
		line := make([]byte, cols)
		for j := range row {
			c := row[j]
			switch {
			case c.total == 0:
				line[j] = ' '
			case c.off > 0:
				line[j] = 'x'
			default:
				line[j] = heatLevels[c.warm*(len(heatLevels)-1)/c.total]
			}
		}
		fmt.Fprintf(w, "  core %3d |%s|\n", cores[i], line)
	}
	fmt.Fprintf(w, "            0s → %v\n", a.end)
	fmt.Fprintf(w, "  glyphs: ' '=cold  .:-=+*#%%=warming  @=always warm  x=offline\n\n")
}

// writeSeries renders the sampled time series: mean busy-core frequency,
// total run-queue depth, and per-socket busy share.
func writeSeries(w io.Writer, a *analysis) {
	if len(a.coreG) == 0 {
		return
	}
	cols := a.cols()
	freqSum, queueSum := make([]float64, cols), make([]float64, cols)
	freqN, instN := make([]int, cols), make([]int, cols)
	lastT := sim.Time(-1)
	for _, g := range a.coreG {
		col := binOf(g.T, a.end, cols)
		if g.T != lastT {
			lastT = g.T
			instN[col]++
		}
		queueSum[col] += float64(g.Queue)
		if g.State == "busy" {
			freqSum[col] += float64(g.FreqMHz)
			freqN[col]++
		}
	}
	freq := make([]float64, cols)
	queue := make([]float64, cols)
	for i := 0; i < cols; i++ {
		freq[i], queue[i] = -1, -1
		if freqN[i] > 0 {
			freq[i] = freqSum[i] / float64(freqN[i])
		}
		if instN[i] > 0 {
			queue[i] = queueSum[i] / float64(instN[i])
		}
	}
	line, peak := spark(freq)
	fmt.Fprintf(w, "busy-core frequency (mean MHz per bin, peak %.0f):\n  |%s|\n", peak, line)
	line, peak = spark(queue)
	fmt.Fprintf(w, "run-queue depth (runnable tasks waiting, mean per bin, peak %.1f):\n  |%s|\n", peak, line)

	if len(a.sockG) > 0 {
		type agg struct {
			sum []float64
			n   []int
		}
		socks := make(map[int]*agg)
		var ids []int
		for _, g := range a.sockG {
			s, ok := socks[g.Socket]
			if !ok {
				s = &agg{sum: make([]float64, cols), n: make([]int, cols)}
				socks[g.Socket] = s
				ids = append(ids, g.Socket)
			}
			col := binOf(g.T, a.end, cols)
			if g.Online > 0 {
				s.sum[col] += float64(g.Busy) / float64(g.Online)
				s.n[col]++
			}
		}
		sort.Ints(ids)
		fmt.Fprintln(w, "socket busy share (busy/online cores, mean per bin):")
		for _, id := range ids {
			s := socks[id]
			vals := make([]float64, cols)
			for i := 0; i < cols; i++ {
				vals[i] = -1
				if s.n[i] > 0 {
					vals[i] = s.sum[i] / float64(s.n[i])
				}
			}
			line, peak = spark(vals)
			fmt.Fprintf(w, "  socket %d |%s| peak %.0f%%\n", id, line, 100*peak)
		}
	}
	fmt.Fprintln(w)
}

// spark renders vals (-1 = no data) as one glyph row scaled to its peak.
func spark(vals []float64) (string, float64) {
	peak := 0.0
	for _, v := range vals {
		if v > peak {
			peak = v
		}
	}
	out := make([]byte, len(vals))
	for i, v := range vals {
		switch {
		case v < 0:
			out[i] = ' '
		case peak == 0:
			out[i] = heatLevels[0]
		default:
			out[i] = heatLevels[int(v/peak*float64(len(heatLevels)-1))]
		}
	}
	return string(out), peak
}

// writeOverload summarises the overload-control counters (ovl.* — see
// docs/ROBUSTNESS.md): offered attempts, goodput, shed and timeout
// shares, retry amplification, the shed/timeout causes and a per-class
// breakdown. Offered counts attempts (base arrivals plus retries);
// every attempt is terminal in exactly one of completed, shed or
// timeout, so the three shares always sum to 100%. The section is
// silent when the stream holds no overload events (closed-loop or
// non-serving workloads); a degenerate stream — overload activity but
// zero terminal attempts, or a zero-runtime summary — renders with
// every undefined ratio as "n/a", never as NaN and never silently
// dropped.
func writeOverload(w io.Writer, a *analysis) {
	c := a.counters
	completed, shed, timeout := c["ovl.completed"], c["ovl.shed"], c["ovl.timeout"]
	offered := completed + shed + timeout
	retries := c["ovl.retry"]
	if offered == 0 && !anyCounter(c, "ovl.") {
		return
	}
	amp := "n/a"
	if base := offered - retries; base > 0 {
		amp = fmt.Sprintf("%.2fx", float64(offered)/float64(base))
	}
	pct := func(n int64) string {
		if offered == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(offered))
	}
	fmt.Fprintf(w, "overload control (%d attempts offered, %d retries, retry amp %s):\n",
		offered, retries, amp)
	goodput := "n/a (no run_summary in stream)"
	if len(a.sums) > 0 {
		goodput = "n/a (zero runtime in run_summary)"
		if a.sums[0].RuntimeNS > 0 {
			goodput = fmt.Sprintf("%.0f req/s", float64(completed)/(float64(a.sums[0].RuntimeNS)/1e9))
		}
	}
	fmt.Fprintf(w, "  completed %d (%s)  shed %d (%s)  timeout %d (%s)  goodput %s\n",
		completed, pct(completed), shed, pct(shed), timeout, pct(timeout), goodput)
	causes := ""
	for _, action := range []string{"shed_admission", "shed_full", "shed_codel", "timeout_queue", "timeout_served"} {
		if n := c["ovl."+action]; n > 0 {
			causes += fmt.Sprintf("  %s %d", action, n)
		}
	}
	if causes != "" {
		fmt.Fprintf(w, "  causes:%s\n", causes)
	}
	for _, class := range overloadClasses(c) {
		comp, sh, to := c["ovl.completed."+class], c["ovl.shed."+class], c["ovl.timeout."+class]
		if off := comp + sh + to; off > 0 {
			fmt.Fprintf(w, "  class %-8s offered %d  completed %d (%.1f%%)  shed %d  timeout %d  retries %d\n",
				class, off, comp, 100*float64(comp)/float64(off), sh, to, c["ovl.retry."+class])
		}
	}
	fmt.Fprintln(w)
}

// anyCounter reports whether any counter under prefix was bumped —
// the "is there activity at all" test behind the degenerate-stream
// rendering paths.
func anyCounter(counters map[string]int64, prefix string) bool {
	for _, name := range ordered.Keys(counters) {
		if counters[name] > 0 && len(name) > len(prefix) && name[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

// writeFanout summarises the fan-out lifecycle (fan.* counters and
// fanout events — see docs/ROBUSTNESS.md): the terminal breakdown of
// subtask attempts (done / cancelled / timed out / shed — exactly one
// per attempt), hedge volume and wins, cancellation causes, and a
// per-stage view with the subtask latency tail and the straggler share
// (time between a stage's median and last needed completion, as a
// share of the stage's duration — the tail hedging exists to buy
// back). Silent when the stream holds no fan-out events; degenerate
// streams render with "n/a" ratios like the overload section.
func writeFanout(w io.Writer, a *analysis) {
	c := a.counters
	done, cancelled := c["fan.sub_done"], c["fan.sub_cancel"]
	timeout, shed := c["fan.sub_timeout"], c["fan.sub_shed"]
	attempts := done + cancelled + timeout + shed
	if attempts == 0 && !anyCounter(c, "fan.") {
		return
	}
	pct := func(n int64) string {
		if attempts == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(attempts))
	}
	fmt.Fprintf(w, "fan-out (%d subtask attempts, %d hedges, %d hedge wins, %d stages satisfied):\n",
		attempts, c["fan.hedge"], c["fan.hedge_win"], c["fan.stage_done"])
	fmt.Fprintf(w, "  done %d (%s)  cancelled %d (%s)  timeout %d (%s)  shed %d (%s)\n",
		done, pct(done), cancelled, pct(cancelled), timeout, pct(timeout), shed, pct(shed))
	causes := ""
	for _, cause := range []string{"hedge_lost", "stage_over", "request_done", "doomed"} {
		if n := c["fan.cancel."+cause]; n > 0 {
			causes += fmt.Sprintf("  %s %d", cause, n)
		}
	}
	if causes != "" {
		fmt.Fprintf(w, "  cancel causes:%s\n", causes)
	}

	// Per-stage view from the raw events: completed-subtask latency tail
	// plus straggle, keyed by stage index.
	type stageAgg struct {
		lat      metrics.LatHist
		straggle sim.Duration
		stageLat sim.Duration
		stages   int64
	}
	byStage := make(map[int]*stageAgg)
	var ids []int
	for _, e := range a.fans {
		if e.Action != "sub_done" && e.Action != "stage_done" {
			continue
		}
		s, ok := byStage[e.Stage]
		if !ok {
			s = &stageAgg{}
			byStage[e.Stage] = s
			ids = append(ids, e.Stage)
		}
		if e.Action == "sub_done" {
			s.lat.Add(e.Lat)
		} else {
			s.stages++
			s.straggle += e.Straggle
			s.stageLat += e.Lat
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		s := byStage[id]
		line := fmt.Sprintf("  stage %d:", id)
		if n := s.lat.Count(); n > 0 {
			t := s.lat.Tail()
			line += fmt.Sprintf(" %d done  sub p50/p95/p99 %s/%s/%s",
				n, usNS(int64(t.P50)), usNS(int64(t.P95)), usNS(int64(t.P99)))
		}
		if s.stages > 0 {
			share := "n/a"
			if s.stageLat > 0 {
				share = fmt.Sprintf("%.1f%%", 100*float64(s.straggle)/float64(s.stageLat))
			}
			line += fmt.Sprintf("  straggle mean %s (%s of stage time)",
				usNS(int64(s.straggle)/s.stages), share)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w)
}

// overloadClasses extracts the request-class names present in the
// per-class ovl.* counters, sorted for deterministic output.
func overloadClasses(counters map[string]int64) []string {
	names := ordered.Keys(counters)
	seen := make(map[string]bool)
	for _, prefix := range []string{"ovl.completed.", "ovl.shed.", "ovl.timeout.", "ovl.retry."} {
		for _, name := range names {
			if len(name) > len(prefix) && name[:len(prefix)] == prefix {
				seen[name[len(prefix):]] = true
			}
		}
	}
	return ordered.Keys(seen)
}

// writeCounters dumps a recomputed counter registry sorted by name.
func writeCounters(w io.Writer, counters map[string]int64) {
	if len(counters) == 0 {
		return
	}
	fmt.Fprintln(w, "counters (recomputed from the event stream):")
	for _, n := range ordered.Keys(counters) {
		fmt.Fprintf(w, "  %-28s %d\n", n, counters[n])
	}
	fmt.Fprintln(w)
}

// usNS renders a nanosecond count in microseconds.
func usNS(ns int64) string {
	return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
}

// ---- diff ------------------------------------------------------------

// writeDiff compares two streams: headline metrics and wake percentiles
// from their RunSummary events, then every counter both or either run
// bumped. Positive deltas mean B saw more than A.
func writeDiff(w io.Writer, pathA, pathB string, a, b *analysis) {
	fmt.Fprintf(w, "diff: A = %s\n", a.label(pathA))
	fmt.Fprintf(w, "      B = %s\n\n", b.label(pathB))

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(a.sums) > 0 && len(b.sums) > 0 {
		as, bs := a.sums[0], b.sums[0]
		fmt.Fprintln(tw, "metric\tA\tB\tdelta")
		row := func(name, av, bv string, rel float64, ok bool) {
			d := "n/a"
			if ok {
				d = fmt.Sprintf("%+.1f%%", 100*rel)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", name, av, bv, d)
		}
		relOf := func(av, bv float64) (float64, bool) {
			if av == 0 {
				return 0, false
			}
			return (bv - av) / av, true
		}
		rel, ok := relOf(float64(as.RuntimeNS), float64(bs.RuntimeNS))
		row("runtime", sim.Time(as.RuntimeNS).String(), sim.Time(bs.RuntimeNS).String(), rel, ok)
		rel, ok = relOf(as.EnergyJ, bs.EnergyJ)
		row("energy", fmt.Sprintf("%.1fJ", as.EnergyJ), fmt.Sprintf("%.1fJ", bs.EnergyJ), rel, ok)
		wakes := []struct {
			name   string
			av, bv int64
		}{
			{"wake p50", as.WakeP50, bs.WakeP50},
			{"wake p95", as.WakeP95, bs.WakeP95},
			{"wake p99", as.WakeP99, bs.WakeP99},
			{"wake p99.9", as.WakeP999, bs.WakeP999},
		}
		for _, p := range wakes {
			rel, ok = relOf(float64(p.av), float64(p.bv))
			row(p.name, usNS(p.av), usNS(p.bv), rel, ok)
		}
		rel, ok = relOf(float64(as.Wakeups), float64(bs.Wakeups))
		row("wakeups", fmt.Sprintf("%d", as.Wakeups), fmt.Sprintf("%d", bs.Wakeups), rel, ok)
		tw.Flush()
		fmt.Fprintln(w)
	} else {
		fmt.Fprintln(w, "summary deltas: n/a (a stream is missing its run_summary event)")
		fmt.Fprintln(w)
	}

	names := append(ordered.Keys(a.counters), ordered.Keys(b.counters)...)
	slices.Sort(names)
	names = slices.Compact(names)
	if len(names) == 0 {
		fmt.Fprintln(w, "counter deltas: n/a (no events)")
		return
	}
	fmt.Fprintln(tw, "counter\tA\tB\tdelta")
	for _, n := range names {
		av, bv := a.counters[n], b.counters[n]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%+d\n", n, av, bv, bv-av)
	}
	tw.Flush()
}
